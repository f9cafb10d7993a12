"""Surrogate vision model: detection probability and geometric occlusion.

The perception component is abstracted to one per-step detection
probability shaped by illuminance, contrast, and occlusion:

    p = p_base * g_E(E) * c**gamma * (1 - occ)

where g_E ramps linearly in log10(E) from e_min (no detection at or below)
to e_sat (fully lit). Occlusion is purely geometric: the fraction of sample
rays from the camera to a small disc around the hand that are blocked by
arm links or conveyor objects, and 1.0 whenever the hand leaves the field
of view.

`occlusion_fraction` counts the whole fan. `hand_detected`, which the
simulation calls, gives the same answer with less work: it decides each
blocker against all 16 rays at once where a sound bound can, and runs the
exact per-ray tests only for the rest. With r_h the hand disc's radius
and the sight line running from the camera to the hand's centre, a
blocker of radius r

- that lies wholly more than r + r_h + BOUND_MARGIN to one side of the
  sight line, behind the camera or past the hand, is farther than
  r + r_h from the sight line, so the exact screen would drop it;
- at distance dc from the sight line blocks every ray if
  dc + s_max * r_h <= r - BOUND_MARGIN, and none if
  dc - s_far * r_h > r + BOUND_MARGIN (see `_fan_blocked` for s_max and
  s_far).

BOUND_MARGIN exceeds the rounding error of every distance the bounds
stand in for, so no blocker that a bound decides could be decided the
other way by the exact tests: the detections, and so every trace, are
the same float for float. A sight line no longer than the disc's
diameter takes the exact tests alone.
"""

from __future__ import annotations

import math

from ..errors import DomainError
from .geometry import point_segment_distance, segment_segment_distance

N_OCCLUSION_RAYS = 16
HAND_DISC_RADIUS = 0.05
ARM_LINK_RADIUS = 0.05
OBJECT_RADIUS = 0.035

_SAMPLE_OFFSETS = tuple(
    (HAND_DISC_RADIUS * math.cos(2.0 * math.pi * k / N_OCCLUSION_RAYS),
     HAND_DISC_RADIUS * math.sin(2.0 * math.pi * k / N_OCCLUSION_RAYS))
    for k in range(N_OCCLUSION_RAYS)
)
_N_RAYS = float(N_OCCLUSION_RAYS)

# Metres of slack in each bound by which hand_detected decides a blocker
# against the whole fan. segment_segment_distance finds its closest pair
# by a division that loses precision as two segments near parallel. On
# segments of a few metres at an angle of 1.6e-8 rad it was measured
# 3.5e-8 m off, and on segments up to 280 m long in a cell whose points
# lie within 100 m of zero, 3.1e-6 m off. Its error is at most about
# sqrt(12 * 2**-53) times the longest of the two segments and the gap
# between their starts, so below 1.1e-5 m in such a cell: a ninth of
# this margin, which is in turn far below any radius.
BOUND_MARGIN = 1e-4


def illuminance_gate(illuminance: float, e_min: float, e_sat: float) -> float:
    """Log-linear ramp from e_min to e_sat, clamped to [0, 1]."""
    if illuminance <= e_min:
        return 0.0
    if illuminance >= e_sat:
        return 1.0
    return (math.log10(illuminance) - math.log10(e_min)) / \
        (math.log10(e_sat) - math.log10(e_min))


def detection_probability(p_base: float, illuminance: float, contrast: float,
                          occlusion: float, e_min: float = 100.0,
                          e_sat: float = 1000.0,
                          contrast_exponent: float = 0.5) -> float:
    """Per-step probability that the target is detected."""
    if not (0.0 <= p_base <= 1.0):
        raise DomainError(f"p_base outside [0, 1]: {p_base}")
    if not (0.0 <= contrast <= 1.0):
        raise DomainError(f"contrast outside [0, 1]: {contrast}")
    if not (0.0 <= occlusion <= 1.0):
        raise DomainError(f"occlusion outside [0, 1]: {occlusion}")
    if illuminance < 0.0:
        raise DomainError(f"illuminance must be non-negative: {illuminance}")
    if not (0.0 < e_min < e_sat):
        raise DomainError(f"need 0 < e_min < e_sat, got {e_min}, {e_sat}")
    gate = illuminance_gate(illuminance, e_min, e_sat)
    return p_base * gate * (contrast ** contrast_exponent) * (1.0 - occlusion)


def in_field_of_view(cam_x: float, cam_y: float, cos_yaw: float,
                     sin_yaw: float, half_angle: float, px: float,
                     py: float) -> bool:
    """Whether (px, py) lies in the cone of a camera at (cam_x, cam_y)
    whose view direction has the given cosine and sine. The caller takes
    them once per camera, not once per point."""
    dx = px - cam_x
    dy = py - cam_y
    r = math.hypot(dx, dy)
    if r < 1e-12:
        return True
    cos_to_point = (dx * cos_yaw + dy * sin_yaw) / r
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


def sight_line(cam_x: float, cam_y: float, hand_x: float,
               hand_y: float) -> tuple:
    """The camera-to-hand sight line as hand_detected takes it, computed
    once per hand position: its ends, then its unit direction, its length
    L and 1 / (L - HAND_DISC_RADIUS), the inverse of the shortest ray's
    length. A line no longer than the hand disc's diameter (the hand at
    the camera) carries no direction, and its blockers take the exact
    screen and ray tests alone."""
    dx = hand_x - cam_x
    dy = hand_y - cam_y
    length = math.hypot(dx, dy)
    if length <= 2.0 * HAND_DISC_RADIUS:
        return (cam_x, cam_y, hand_x, hand_y, None)
    return (cam_x, cam_y, hand_x, hand_y,
            (dx / length, dy / length, length,
             1.0 / (length - HAND_DISC_RADIUS)))


def _fan_blocked(dc: float, radius: float, s_max: float,
                 s_far: float) -> bool | None:
    """True if a blocker at distance dc from the sight line blocks every
    ray of the fan, False if it blocks none, None if only the per-ray
    tests can tell.

    Ray k and the sight line share the camera end, and their points at
    parameter s lie s * HAND_DISC_RADIUS apart. s_max is the larger of
    the blocker's ends' projections on the sight line, over its length:
    the sight line's point nearest the blocker lies at s <= s_max, so
    every ray passes within dc + s_max * HAND_DISC_RADIUS of the blocker.
    s_far is the larger of the ends' distances from the camera, over the
    shortest ray's length: a ray's point nearest the blocker is no
    farther from the camera than that end, so lies at s <= s_far, and
    no ray passes nearer than dc - s_far * HAND_DISC_RADIUS. Both are
    clamped to [0, 1] here, and BOUND_MARGIN covers the rounding.
    """
    if s_max < 0.0:
        s_max = 0.0
    elif s_max > 1.0:
        s_max = 1.0
    if dc + s_max * HAND_DISC_RADIUS <= radius - BOUND_MARGIN:
        return True
    if s_far > 1.0:
        s_far = 1.0
    if dc - s_far * HAND_DISC_RADIUS > radius + BOUND_MARGIN:
        return False
    return None


def hand_detected(u: float, p_clear: float, sight: tuple, segments, discs,
                  disc_radius: float) -> bool:
    """Whether a uniform draw u detects the in-view hand.

    Detection holds iff u < p_clear * (1 - occ), with occ the blocked
    fraction of the sample-ray fan. `sight` is sight_line's tuple,
    `segments` holds capsules (ax, ay, bx, by, radius), and each disc is a
    triple whose last two items are its centre, such as the engine's
    (index, x, y) belt entries, all of radius `disc_radius`.

    Each blocker is first decided against the whole fan. One that lies
    wholly to one side of the sight line, or behind the camera, or past
    the hand, by more than its reach, cannot pass the screen and is left
    out. Past the screen, one that blocks every ray rules detection out,
    and one that blocks none is dropped (see _fan_blocked). The rest take
    the per-ray tests. The blocked count only lowers the threshold, so
    detection holds iff fewer rays are blocked than the least count whose
    threshold u reaches; the ray tests stop as soon as the count so far
    settles that.
    """
    if u >= p_clear:
        return False
    cam_x, cam_y, hand_x, hand_y, frame = sight
    if frame is None:
        near = _near_blockers(cam_x, cam_y, hand_x, hand_y, segments,
                              [(ox, oy, disc_radius) for _, ox, oy in discs])
    else:
        ux, uy, length, inv_shortest = frame
        near = []
        for ax, ay, bx, by, radius in segments:
            reach = radius + HAND_DISC_RADIUS + BOUND_MARGIN
            pax = ax - cam_x
            pay = ay - cam_y
            pbx = bx - cam_x
            pby = by - cam_y
            ha = ux * pay - uy * pax
            hb = ux * pby - uy * pbx
            if (ha > reach and hb > reach) or (ha < -reach and hb < -reach):
                continue
            sa = ux * pax + uy * pay
            sb = ux * pbx + uy * pby
            if (sa < -reach and sb < -reach) or (
                    sa > length + reach and sb > length + reach):
                continue
            dc = segment_segment_distance(cam_x, cam_y, hand_x, hand_y,
                                          ax, ay, bx, by)
            if dc > radius + HAND_DISC_RADIUS:
                continue
            blocked = _fan_blocked(
                dc, radius, max(sa, sb) / length,
                max(math.hypot(pax, pay), math.hypot(pbx, pby))
                * inv_shortest)
            if blocked:
                return False
            if blocked is None:
                near.append((ax, ay, bx, by, radius))
        reach = disc_radius + HAND_DISC_RADIUS + BOUND_MARGIN
        for _, ox, oy in discs:
            pox = ox - cam_x
            poy = oy - cam_y
            ho = ux * poy - uy * pox
            so = ux * pox + uy * poy
            if ho > reach or ho < -reach or so < -reach or \
                    so > length + reach:
                continue
            dc = point_segment_distance(ox, oy, cam_x, cam_y, hand_x, hand_y)
            if dc > disc_radius + HAND_DISC_RADIUS:
                continue
            blocked = _fan_blocked(dc, disc_radius, so / length,
                                   math.hypot(pox, poy) * inv_shortest)
            if blocked:
                return False
            if blocked is None:
                near.append((ox, oy, ox, oy, disc_radius))
    if not near:
        return True
    # The least blocked count whose threshold u reaches, if any does.
    limit = 1
    while u < p_clear * (1.0 - limit / _N_RAYS):
        if limit == N_OCCLUSION_RAYS:
            return True
        limit += 1
    # Detection then needs this many clear rays. Of the fan's rays, either
    # that many are clear or `limit` are blocked, so the loop returns.
    needed = N_OCCLUSION_RAYS + 1 - limit
    for off_x, off_y in _SAMPLE_OFFSETS:
        if _ray_blocked(cam_x, cam_y, hand_x + off_x, hand_y + off_y, near):
            limit -= 1
            if not limit:
                return False
        else:
            needed -= 1
            if not needed:
                return True


def occlusion_fraction(cam_x: float, cam_y: float, yaw: float,
                       half_angle: float, hand_x: float, hand_y: float,
                       segments: tuple = (), discs: tuple = ()) -> float:
    """Blocked fraction of sample rays from the camera to the hand disc.

    `segments` holds capsules as (ax, ay, bx, by, radius); `discs` holds
    (x, y, radius). Returns 1.0 outright when the hand is outside the
    camera cone.
    """
    if not in_field_of_view(cam_x, cam_y, math.cos(yaw), math.sin(yaw),
                            half_angle, hand_x, hand_y):
        return 1.0
    near = _near_blockers(cam_x, cam_y, hand_x, hand_y, segments, discs)
    return sum(_ray_blocked(cam_x, cam_y, hand_x + off_x, hand_y + off_y, near)
               for off_x, off_y in _SAMPLE_OFFSETS) / _N_RAYS
