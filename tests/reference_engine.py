"""The simulator's episode and hand-detection kernels as they were before
per-step reuse, as the reference that the package must reproduce float
for float.

`simulate`, `hand_detected` and `in_field_of_view` are copied verbatim
from the kernels that recomputed every per-step quantity on every step,
and so are the occlusion screen and ray test that `hand_detected` calls
and their sample-ray fan; they are kept here, outside the package, so
that a change to the package cannot change the reference with it. The
other helpers they call are imported from the package.
"""

import math
import random

from riskbench.errors import DomainError
from riskbench.sim.engine import (CHASE_GAIN, CHASE_LEAD, CONTACT_EPSILON,
                                  INNER_SLACK, REACH_SLACK, Trace,
                                  TraceMetrics, _hand_depth,
                                  protective_distance)
from riskbench.sim.geometry import (point_segment_distance,
                                    segment_segment_distance, two_link_elbow)
from riskbench.sim.perception import (ARM_LINK_RADIUS, HAND_DISC_RADIUS,
                                      N_OCCLUSION_RAYS, OBJECT_RADIUS,
                                      detection_probability)
from riskbench.sim.scenario import (MODE_MONITORED_STOP, MODE_SSM, Scenario,
                                    validate_scenario)

_SAMPLE_OFFSETS = tuple(
    (HAND_DISC_RADIUS * math.cos(2.0 * math.pi * k / N_OCCLUSION_RAYS),
     HAND_DISC_RADIUS * math.sin(2.0 * math.pi * k / N_OCCLUSION_RAYS))
    for k in range(N_OCCLUSION_RAYS)
)
_N_RAYS = float(N_OCCLUSION_RAYS)


def in_field_of_view(cam_x: float, cam_y: float, yaw: float,
                     half_angle: float, px: float, py: float) -> bool:
    dx = px - cam_x
    dy = py - cam_y
    r = math.hypot(dx, dy)
    if r < 1e-12:
        return True
    cos_to_point = (dx * math.cos(yaw) + dy * math.sin(yaw)) / r
    # Guard acos domain; compare angles rather than cosines so half_angle
    # values above pi/2 behave.
    if cos_to_point > 1.0:
        cos_to_point = 1.0
    elif cos_to_point < -1.0:
        cos_to_point = -1.0
    return math.acos(cos_to_point) <= half_angle


def _near_blockers(cam_x: float, cam_y: float, hand_x: float, hand_y: float,
                   segments, discs) -> list:
    """Blockers close enough to the camera-to-hand sight line to touch a
    sample ray, as capsules (ax, ay, bx, by, radius); a disc becomes a
    zero-length capsule. Most steps have a clear view, and this screen
    spares them the per-ray tests."""
    near = []
    for ax, ay, bx, by, radius in segments:
        if segment_segment_distance(cam_x, cam_y, hand_x, hand_y, ax, ay,
                                    bx, by) <= radius + HAND_DISC_RADIUS:
            near.append((ax, ay, bx, by, radius))
    for ox, oy, radius in discs:
        if point_segment_distance(ox, oy, cam_x, cam_y,
                                  hand_x, hand_y) <= radius + HAND_DISC_RADIUS:
            near.append((ox, oy, ox, oy, radius))
    return near


def _ray_blocked(cam_x: float, cam_y: float, sx: float, sy: float,
                 near: list) -> bool:
    """Whether a screened blocker cuts the ray from the camera to (sx, sy)."""
    for ax, ay, bx, by, radius in near:
        if segment_segment_distance(cam_x, cam_y, sx, sy,
                                    ax, ay, bx, by) <= radius:
            return True
    return False


def hand_detected(u: float, p_clear: float, cam: tuple, hand: tuple,
                  segments, discs) -> bool:
    """Whether a uniform draw u detects the in-view hand.

    Detection holds iff u < p_clear * (1 - occ), with occ the blocked
    fraction of the sample-ray fan. The blocked count only moves the
    threshold one way, so the ray tests stop as soon as a partial count
    settles the comparison. Blockers are given as in occlusion_fraction.
    """
    if u >= p_clear:
        return False
    cam_x, cam_y = cam
    hand_x, hand_y = hand
    near = _near_blockers(cam_x, cam_y, hand_x, hand_y, segments, discs)
    if not near:
        return True
    blocked = 0
    for k, (off_x, off_y) in enumerate(_SAMPLE_OFFSETS, 1):
        blocked += _ray_blocked(cam_x, cam_y, hand_x + off_x, hand_y + off_y,
                                near)
        threshold = p_clear * (1.0 - blocked / _N_RAYS)
        # Settled when the hits so far rule detection out, or when even
        # blocking every remaining ray would not.
        if u >= threshold or u < p_clear * (
                1.0 - (blocked + N_OCCLUSION_RAYS - k) / _N_RAYS):
            break
    return u < threshold


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
    if belt_len <= 0.0:
        raise DomainError("belt has zero length")
    belt_ux = (belt_ex - belt_sx) / belt_len
    belt_uy = (belt_ey - belt_sy) / belt_len
    belt_speed = belt.speed
    spawn_interval = belt.spawn_interval
    n_objects = belt.object_count

    # Arm geometry and controller constants.
    base_x, base_y = arm.base
    l1 = arm.link1
    l2 = arm.link2
    reach_max = l1 + l2 - REACH_SLACK
    reach_min = abs(l1 - l2) + INNER_SLACK
    v_max = arm.max_speed
    a_brake = arm.brake_decel
    pick_radius = arm.pick_radius
    bin_x, bin_y = arm.bin

    t_r = ctrl.reaction_time
    v_h = ctrl.assumed_human_speed
    clearance = ctrl.min_clearance
    mode_stop = ctrl.mode == MODE_MONITORED_STOP
    if not mode_stop and ctrl.mode != MODE_SSM:
        raise DomainError(f"unknown controller mode {ctrl.mode!r}")
    inv_2a = 1.0 / (2.0 * a_brake)
    sp_static = v_h * t_r + clearance
    # Quadratic coefficients of the speed governor: largest v with
    # S_p(v) + v_h * (v / a) + 2 dt (v + v_h) <= perceived distance.
    gov_b = t_r + v_h / a_brake + 2.0 * dt
    gov_k0 = sp_static + 2.0 * dt * v_h

    # Operator script.
    torso_x, torso_y = op.start
    reach_depth = op.hand_intrusion
    hand_speed = op.hand_speed
    approach = op.approach_time

    # Perception constants folded down to one pre-occlusion probability.
    cam_xy = cam.position
    cam_x, cam_y = cam_xy
    cam_yaw = cam.yaw
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
    last_hand_x = 0.0
    last_hand_y = 0.0

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
                travel[i] += belt_speed * dt
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
                        cam_x, cam_y, cam_yaw, half_angle, ox, oy)):
                    if p_clear >= 1.0 or rng.random() < p_clear:
                        acquired[i] = True
        in_view = ignore_occ or in_field_of_view(cam_x, cam_y, cam_yaw,
                                                 half_angle, hand_x, hand_y)
        if in_view:
            fov_steps += 1
            if p_clear > 0.0:
                # One uniform draw decides the step; a saturated p_clear
                # needs none.
                u = rng.random() if p_clear < 1.0 else 0.0
                links = discs = ()
                if not ignore_occ:
                    links = ((base_x, base_y, elbow_x, elbow_y,
                              ARM_LINK_RADIUS),
                             (elbow_x, elbow_y, ee_x, ee_y, ARM_LINK_RADIUS))
                    discs = [(ox, oy, OBJECT_RADIUS) for _, ox, oy in on_belt]
                detected = hand_detected(u, p_clear, cam_xy,
                                         (hand_x, hand_y), links, discs)
            if detected:
                hand_age = 0
                last_hand_x = hand_x
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
                v_des = math.sqrt(2.0 * a_brake * goal_dist)
            if v_des > v_max:
                v_des = v_max
        else:
            goal_dist = 0.0
            v_des = 0.0

        # Speed governor against the perceived human position.
        if tracked:
            d_perc = min(
                point_segment_distance(last_hand_x, last_hand_y,
                                       base_x, base_y, elbow_x, elbow_y),
                point_segment_distance(last_hand_x, last_hand_y,
                                       elbow_x, elbow_y, ee_x, ee_y))
            if mode_stop:
                inside = math.hypot(last_hand_x - base_x,
                                    last_hand_y - base_y) <= l1 + l2
                v_cmd = 0.0 if inside else v_des
            else:
                disc = gov_b * gov_b - 4.0 * inv_2a * (gov_k0 - d_perc)
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
        lo = v_prev - a_brake * dt
        hi = v_prev + a_brake * dt
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
        # arm point (effector or elbow) at the commanded speed.
        old_x, old_y = ee_x, ee_y
        old_elbow_x, old_elbow_y = elbow_x, elbow_y
        if v_new > 0.0 and goal_dist > 1e-12:
            step_len = v_new * dt
            if step_len >= goal_dist:
                new_x, new_y = target_x, target_y
            else:
                new_x = ee_x + (target_x - ee_x) * step_len / goal_dist
                new_y = ee_y + (target_y - ee_y) * step_len / goal_dist
            # The commanded speed bounds every arm point, elbow included.
            # Shrink the effector displacement until the fastest point
            # complies; bail out to no motion if the contraction stalls.
            ok = False
            for _ in range(8):
                nex, ney = two_link_elbow(base_x, base_y, new_x, new_y, l1, l2)
                v_pt = max(math.hypot(new_x - old_x, new_y - old_y),
                           math.hypot(nex - old_elbow_x,
                                      ney - old_elbow_y)) / dt
                if v_pt <= v_new + 1e-9 or v_pt <= 1e-12:
                    ok = True
                    break
                shrink = v_new / v_pt
                new_x = old_x + (new_x - old_x) * shrink
                new_y = old_y + (new_y - old_y) * shrink
            if ok:
                ee_x, ee_y = new_x, new_y
                elbow_x, elbow_y = nex, ney
        v_r = max(math.hypot(ee_x - old_x, ee_y - old_y),
                  math.hypot(elbow_x - old_elbow_x,
                             elbow_y - old_elbow_y)) / dt
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
        # both arm links.
        d_true = min(
            point_segment_distance(hand_x, hand_y, base_x, base_y,
                                   elbow_x, elbow_y),
            point_segment_distance(hand_x, hand_y, elbow_x, elbow_y,
                                   ee_x, ee_y),
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
