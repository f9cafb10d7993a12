"""Deterministic fixed-step simulation of the collaborative cell.

One `simulate(scenario, seed)` call plays out a conveyor feeding objects
past a two-link arm while a scripted operator periodically reaches a hand
into the workspace. The robot only knows what the surrogate camera tells
it: objects must be seen once before the task logic will chase them, and
the hand position is held for a bounded number of missed frames before the
controller treats the workspace as clear. Speed is governed so that, while
the hand is tracked, the protective separation distance plus a two-step
closing guard never exceeds the perceived clearance.

A step reuses what an earlier step computed while its inputs are equal,
and leaves out what cannot change its result, so the trace is the same,
float for float, as that of a step that recomputes everything. Reuse is
keyed on exact float equality, and no arithmetic is reordered (a hoisted
constant such as `belt_speed * dt` is the product the step would form,
since Python evaluates left to right). Over 200 random bindings per
shipped cell, a step reuses:

- while the hand is still (77% of steps in the default cell, 85% in the
  corner cell): its field-of-view test, its sight line from the camera
  (`sight_line`), and its least distance from the upper arm, which is
  its distance from the base less `l1`, since no upper-arm point is
  farther from the base than the elbow;
- as the governor's perceived distance (57% and 78%): the last step's
  hand distance, when the fix is where that hand was, since the arm
  does not move between one step's separation and the next governor.

The robot speed is the shrink loop's accepted value, the same
expression (0.0 when the arm does not move). Every other value, `S_p`
among them, is computed on each step that needs it, less what a bound
shows cannot change the result: the upper arm's distance from the hand
or the fix, where the forearm is nearer than `ARM_BOUND_MARGIN` below
that least distance; the torso's, where it cannot be the smaller (see
the separation step); and an occlusion blocker that `hand_detected`
settles against the whole fan of sample rays, or every blocker for a
draw that cannot detect the hand (see `riskbench.sim.perception`).
Each bound settles its result with a margin far above the error of the
distance it stands in for, so the trace does not depend on the bound.
"""

from __future__ import annotations

import math
import random

from ..errors import DomainError
from ..metrics import TRACE_METRIC_NAMES
from ..record import Record
from .geometry import point_segment_distance, two_link_elbow
from .perception import (ARM_LINK_RADIUS, OBJECT_RADIUS,
                         detection_probability, hand_detected,
                         in_field_of_view, sight_line)
from .scenario import MODE_MONITORED_STOP, Scenario, validate_scenario

TRACE_COLUMNS = ("t", "d", "S_p", "v_r", "detected",
                 "ee_x", "ee_y", "hand_x", "hand_y")

# Contact closer than this counts as a collision.
CONTACT_EPSILON = 0.02

# Operator reach script timing (seconds): extend, dwell deep, retract, rest.
HAND_DWELL = 1.2
HAND_REST = 0.6

# Chase gain: closing speed on a conveyor object is the belt speed plus
# gap/CHASE_GAIN, so the gap contracts instead of reaching a trailing
# equilibrium the way a pure gap/deadline pace would.
CHASE_GAIN = 0.8

# Aim to reach a chased object with this fraction of its remaining belt
# time still left.
CHASE_LEAD = 0.75

# Keep commanded arm targets strictly inside the reachable annulus.
REACH_SLACK = 0.03
INNER_SLACK = 0.01

# Metres of slack in a lower bound on a point's distance from the upper
# arm (the hand's, kept while the hand is still, or the fix's) that lets
# a step leave that distance out: far above the rounding in any cell's
# coordinates, far below any clearance.
ARM_BOUND_MARGIN = 1e-6

# Square metres by which every arm point must be nearer the hand than the
# torso, in squared distance, before the separation leaves the torso out.
# Cell point coordinates lie within 100 m of zero and links are at most
# 10 m, so no distance exceeds 320 m, and the gap between the two
# distances is at least 1.5e-11 m: some fifty times the rounding in a
# distance that long.
TORSO_GAP = 1e-8


def protective_distance(v_r: float, reaction_time: float,
                        assumed_human_speed: float, brake_decel: float,
                        min_clearance: float) -> float:
    """Separation the cell must hold at robot speed v_r.

    Covers human travel during the reaction window plus a fixed clearance,
    robot travel during the reaction window, and the robot braking
    distance.
    """
    if brake_decel <= 0.0:
        raise DomainError(
            f"brake_decel must be positive, got {brake_decel!r}")
    if v_r < 0.0:
        raise DomainError(f"robot speed must be non-negative, got {v_r!r}")
    return (assumed_human_speed * reaction_time + min_clearance
            + v_r * reaction_time
            + v_r * v_r * (1.0 / (2.0 * brake_decel)))


class TraceMetrics(Record):
    min_margin: float
    min_distance: float
    objects_fallen: int
    detection_miss_ratio: float
    collision: bool

    def as_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in TRACE_METRIC_NAMES}


class Trace(Record):
    seed: int
    dt: float
    steps: tuple
    metrics: TraceMetrics


def _hand_depth(t: float, start_time: float, reach: float, speed: float) -> float:
    """Scripted intrusion depth at time t (0 = hand at the torso)."""
    if t < start_time or reach <= 0.0:
        return 0.0
    t_out = reach / speed
    cycle = 2.0 * t_out + HAND_DWELL + HAND_REST
    u = (t - start_time) % cycle
    if u < t_out:
        return speed * u
    u -= t_out
    if u < HAND_DWELL:
        return reach
    u -= HAND_DWELL
    if u < t_out:
        return reach - speed * u
    return 0.0


def simulate(scenario: Scenario, seed: int) -> Trace:
    """Run one episode and return the trace with its summary metrics."""
    validate_scenario(scenario)
    rng = random.Random(seed)

    dt = scenario.dt
    n_steps = int(scenario.duration / dt + 1e-9)

    belt = scenario.belt
    arm = scenario.arm
    op = scenario.operator
    cam = scenario.camera
    env = scenario.environment
    ctrl = scenario.controller
    per = scenario.perception

    # Belt geometry.
    belt_sx, belt_sy = belt.start
    belt_ex, belt_ey = belt.end
    belt_len = math.hypot(belt_ex - belt_sx, belt_ey - belt_sy)
    belt_ux = (belt_ex - belt_sx) / belt_len
    belt_uy = (belt_ey - belt_sy) / belt_len
    belt_speed = belt.speed
    belt_step = belt_speed * dt
    spawn_interval = belt.spawn_interval
    n_objects = belt.object_count

    # Arm geometry and controller constants.
    base_x, base_y = arm.base
    l1 = arm.link1
    l2 = arm.link2
    arm_span = l1 + l2
    reach_max = arm_span - REACH_SLACK
    reach_min = abs(l1 - l2) + INNER_SLACK
    v_max = arm.max_speed
    a_brake = arm.brake_decel
    a_step = a_brake * dt
    two_a = 2.0 * a_brake
    pick_radius = arm.pick_radius
    bin_x, bin_y = arm.bin

    t_r = ctrl.reaction_time
    v_h = ctrl.assumed_human_speed
    clearance = ctrl.min_clearance
    mode_stop = ctrl.mode == MODE_MONITORED_STOP
    inv_2a = 1.0 / (2.0 * a_brake)
    sp_static = v_h * t_r + clearance
    # Quadratic coefficients of the speed governor: largest v with
    # S_p(v) + v_h * (v / a) + 2 dt (v + v_h) <= perceived distance.
    gov_b = t_r + v_h / a_brake + 2.0 * dt
    gov_bb = gov_b * gov_b
    gov_4a = 4.0 * inv_2a
    gov_k0 = sp_static + 2.0 * dt * v_h

    # Operator script.
    torso_x, torso_y = op.start
    reach_depth = op.hand_intrusion
    hand_speed = op.hand_speed
    approach = op.approach_time

    # Perception constants folded down to one pre-occlusion probability.
    cam_x, cam_y = cam.position
    cos_yaw = math.cos(cam.yaw)
    sin_yaw = math.sin(cam.yaw)
    half_angle = cam.fov_half_angle
    p_clear = detection_probability(
        per.p_base, env.illuminance, env.contrast, occlusion=0.0,
        e_min=per.e_min, e_sat=per.e_sat,
        contrast_exponent=per.contrast_exponent)
    miss_horizon = per.miss_horizon
    ignore_occ = per.ignore_occlusion

    # Mutable world state. Objects enter in index order, so the spawned
    # ones are the first n_spawned; a picked or fallen one is off the belt.
    n_spawned = 0
    off_belt = [False] * n_objects
    travel = [0.0] * n_objects
    acquired = [False] * n_objects

    ee_x, ee_y = bin_x, bin_y
    elbow_x, elbow_y = two_link_elbow(base_x, base_y, ee_x, ee_y, l1, l2)
    v_prev = 0.0
    carrying = -1
    chase = None  # (i, x, y, t_fall) of the object being chased

    hand_age = miss_horizon + 1
    last_hand_y = 0.0

    # What a step reuses from the last one while the hand is still. The
    # hand moves only along y (hand_x is the torso's x), and NaN equals
    # nothing, so the first step computes everything.
    prev_hand_y = math.nan      # the last step's, until the separation
    in_view = False
    sight = None
    sep_bound = math.inf        # the hand's least distance from the upper arm
    d_hand = math.inf

    fov_steps = 0
    miss_steps = 0
    objects_fallen = 0
    min_margin = math.inf
    min_distance = math.inf

    steps = []
    append_step = steps.append

    for k in range(n_steps):
        t = (k + 1) * dt

        # Advance the conveyor and list what is on it as (i, x, y).
        on_belt = []
        for i in range(n_objects):
            if off_belt[i]:
                continue
            if i < n_spawned:
                travel[i] += belt_step
            elif t >= i * spawn_interval:
                n_spawned += 1
                travel[i] = (t - i * spawn_interval) * belt_speed
            else:
                break
            if travel[i] >= belt_len:
                off_belt[i] = True
                objects_fallen += 1
            else:
                on_belt.append((i, belt_sx + belt_ux * travel[i],
                                belt_sy + belt_uy * travel[i]))

        # Advance the operator.
        depth = _hand_depth(t, approach, reach_depth, hand_speed)
        hand_x = torso_x
        hand_y = torso_y - depth

        # Sense. Objects are acquired permanently on first sight; the hand
        # estimate goes stale after miss_horizon consecutive misses. An
        # in-view step with zero clear-sight probability still counts as a
        # miss: the hand is there, the camera just cannot resolve it.
        detected = False
        if p_clear > 0.0:
            for i, ox, oy in on_belt:
                if not acquired[i] and (ignore_occ or in_field_of_view(
                        cam_x, cam_y, cos_yaw, sin_yaw, half_angle, ox, oy)):
                    if p_clear >= 1.0 or rng.random() < p_clear:
                        acquired[i] = True
        if hand_y != prev_hand_y:
            in_view = ignore_occ or in_field_of_view(
                cam_x, cam_y, cos_yaw, sin_yaw, half_angle, hand_x, hand_y)
            if in_view and not ignore_occ:
                sight = sight_line(cam_x, cam_y, hand_x, hand_y)
        if in_view:
            fov_steps += 1
            if p_clear > 0.0:
                # One uniform draw decides the step; a saturated p_clear
                # needs none. A draw at or past p_clear is a miss whatever
                # blocks the view.
                u = rng.random() if p_clear < 1.0 else 0.0
                if u < p_clear:
                    detected = ignore_occ or hand_detected(
                        u, p_clear, sight,
                        ((base_x, base_y, elbow_x, elbow_y, ARM_LINK_RADIUS),
                         (elbow_x, elbow_y, ee_x, ee_y, ARM_LINK_RADIUS)),
                        on_belt, OBJECT_RADIUS)
            if detected:
                hand_age = 0
                last_hand_y = hand_y
            else:
                miss_steps += 1
                hand_age += 1
        else:
            hand_age += 1

        tracked = hand_age <= miss_horizon

        # Task logic over acquired objects only.
        if carrying >= 0:
            target_x, target_y = bin_x, bin_y
            deadline = math.inf
            have_target = True
        else:
            # Stick with the current chase while it stays winnable.
            previous = chase[0] if chase else -1
            chase = None
            best_dist = math.inf
            for i, ox, oy in on_belt:
                if not acquired[i]:
                    continue
                dist = math.hypot(ox - ee_x, oy - ee_y)
                if belt_speed > 0.0:
                    t_fall = (belt_len - travel[i]) / belt_speed
                else:
                    t_fall = math.inf
                if dist / max(t_fall, dt) > v_max:
                    continue
                if i == previous:
                    chase = (i, ox, oy, t_fall)
                    break
                if dist < best_dist:
                    chase = (i, ox, oy, t_fall)
                    best_dist = dist
            if chase:
                _, target_x, target_y, deadline = chase
                have_target = True
            else:
                target_x, target_y = ee_x, ee_y
                deadline = math.inf
                have_target = False

        if have_target:
            # Clamp the commanded point into the reachable annulus.
            tr = math.hypot(target_x - base_x, target_y - base_y)
            if tr > reach_max:
                scale = reach_max / tr
                target_x = base_x + (target_x - base_x) * scale
                target_y = base_y + (target_y - base_y) * scale
            elif tr < reach_min and tr > 1e-12:
                scale = reach_min / tr
                target_x = base_x + (target_x - base_x) * scale
                target_y = base_y + (target_y - base_y) * scale
            goal_dist = math.hypot(target_x - ee_x, target_y - ee_y)
            if chase:
                # Closing law for a moving object, with a deadline override
                # when the object nears the belt end.
                v_des = belt_speed + goal_dist / CHASE_GAIN
                if deadline < math.inf:
                    lead = deadline * CHASE_LEAD
                    if lead < dt:
                        lead = dt
                    urgent = goal_dist / lead
                    if urgent > v_des:
                        v_des = urgent
            else:
                # Drop-off: ride the brake envelope in, so the leg runs
                # at speed yet still settles onto the bin point.
                v_des = math.sqrt(two_a * goal_dist)
            if v_des > v_max:
                v_des = v_max
        else:
            goal_dist = 0.0
            v_des = 0.0

        # Speed governor against the perceived human position, the fix
        # (torso_x, last_hand_y): the hand moves only along y. A fix at the
        # hand position of the last step's separation makes the same
        # distance calls on the same arm pose, so that d_hand is d_perc.
        # Otherwise the upper arm is left out as in the separation below.
        if tracked:
            if mode_stop:
                inside = math.hypot(torso_x - base_x,
                                    last_hand_y - base_y) <= arm_span
                v_cmd = 0.0 if inside else v_des
            else:
                if last_hand_y == prev_hand_y:
                    d_perc = d_hand
                else:
                    d_perc = point_segment_distance(torso_x, last_hand_y,
                                                    elbow_x, elbow_y,
                                                    ee_x, ee_y)
                    if d_perc >= (math.hypot(torso_x - base_x,
                                             last_hand_y - base_y)
                                  - l1 - ARM_BOUND_MARGIN):
                        d_perc = min(
                            point_segment_distance(torso_x, last_hand_y,
                                                   base_x, base_y,
                                                   elbow_x, elbow_y),
                            d_perc)
                disc = gov_bb - gov_4a * (gov_k0 - d_perc)
                if disc <= 0.0:
                    v_allow = 0.0
                else:
                    v_allow = (math.sqrt(disc) - gov_b) * a_brake
                    if v_allow < 0.0:
                        v_allow = 0.0
                v_cmd = v_des if v_des < v_allow else v_allow
        else:
            v_cmd = v_des

        # Acceleration limits; braking authority is a_brake.
        lo = v_prev - a_step
        hi = v_prev + a_step
        v_new = v_cmd
        if v_new < lo:
            v_new = lo
        elif v_new > hi:
            v_new = hi
        if v_new < 0.0:
            v_new = 0.0
        elif v_new > v_max:
            v_new = v_max

        # Move the end effector straight at the target, then cap the fastest
        # arm point (effector or elbow) at the commanded speed. The robot
        # speed is that of the fastest point over the step.
        v_r = 0.0
        if v_new > 0.0 and goal_dist > 1e-12:
            old_x, old_y = ee_x, ee_y
            step_len = v_new * dt
            if step_len >= goal_dist:
                new_x, new_y = target_x, target_y
            else:
                new_x = ee_x + (target_x - ee_x) * step_len / goal_dist
                new_y = ee_y + (target_y - ee_y) * step_len / goal_dist
            # The commanded speed bounds every arm point, elbow included.
            # Shrink the effector displacement until the fastest point
            # complies; bail out to no motion if the contraction stalls.
            for _ in range(8):
                nex, ney = two_link_elbow(base_x, base_y, new_x, new_y, l1, l2)
                v_pt = max(math.hypot(new_x - old_x, new_y - old_y),
                           math.hypot(nex - elbow_x, ney - elbow_y)) / dt
                if v_pt <= v_new + 1e-9 or v_pt <= 1e-12:
                    ee_x, ee_y = new_x, new_y
                    elbow_x, elbow_y = nex, ney
                    v_r = v_pt
                    break
                shrink = v_new / v_pt
                new_x = old_x + (new_x - old_x) * shrink
                new_y = old_y + (new_y - old_y) * shrink
        v_prev = v_new

        # Pick and place bookkeeping after the move.
        if carrying >= 0:
            if math.hypot(ee_x - bin_x, ee_y - bin_y) <= pick_radius:
                carrying = -1
        elif chase:
            i, ox, oy, _ = chase
            if math.hypot(ee_x - ox, ee_y - oy) <= pick_radius:
                off_belt[i] = True
                carrying = i
                chase = None

        # True separation between the operator (hand plus torso anchor) and
        # both arm links. The upper arm's distance is left out while the
        # forearm is nearer than sep_bound, the least distance from the
        # hand that an upper-arm point can have. The torso's distance is
        # left out where it cannot be the smaller: while the hand is at the
        # torso (the same calls on the same points), and while the whole
        # arm lies below the midpoint of the hand and the torso straight
        # above it, by a squared-distance gap that rounding cannot close.
        if hand_y != prev_hand_y:
            prev_hand_y = hand_y
            sep_bound = (math.hypot(hand_x - base_x, hand_y - base_y)
                         - l1 - ARM_BOUND_MARGIN)
        d_hand = point_segment_distance(hand_x, hand_y, elbow_x, elbow_y,
                                        ee_x, ee_y)
        if d_hand >= sep_bound:
            d_hand = min(
                point_segment_distance(hand_x, hand_y, base_x, base_y,
                                       elbow_x, elbow_y),
                d_hand)
        if hand_y == torso_y or (
                (torso_y - hand_y)
                * (torso_y + hand_y - 2.0 * max(base_y, elbow_y, ee_y))
                >= TORSO_GAP):
            d_true = d_hand
        else:
            d_true = min(
                d_hand,
                point_segment_distance(torso_x, torso_y, base_x, base_y,
                                       elbow_x, elbow_y),
                point_segment_distance(torso_x, torso_y, elbow_x, elbow_y,
                                       ee_x, ee_y))
        s_p = protective_distance(v_r, t_r, v_h, a_brake, clearance)
        margin = d_true - s_p
        if margin < min_margin:
            min_margin = margin
        if d_true < min_distance:
            min_distance = d_true

        append_step((t, d_true, s_p, v_r, detected,
                     ee_x, ee_y, hand_x, hand_y))

    metrics = TraceMetrics(
        min_margin=min_margin,
        min_distance=min_distance,
        objects_fallen=objects_fallen,
        detection_miss_ratio=(miss_steps / fov_steps) if fov_steps else 0.0,
        collision=min_distance < CONTACT_EPSILON,
    )
    return Trace(seed=seed, dt=dt, steps=tuple(steps), metrics=metrics)


def trace_to_csv(trace: Trace) -> str:
    """Render the per-step trace with a fixed header, one row per step."""
    lines = [",".join(TRACE_COLUMNS)]
    for (t, d, s_p, v_r, detected, ee_x, ee_y, hand_x, hand_y) in trace.steps:
        lines.append(f"{t!r},{d!r},{s_p!r},{v_r!r},{1 if detected else 0},"
                     f"{ee_x!r},{ee_y!r},{hand_x!r},{hand_y!r}")
    return "\n".join(lines) + "\n"
