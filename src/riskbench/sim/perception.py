"""Surrogate vision model: detection probability and geometric occlusion.

The perception component is abstracted to one per-step detection
probability shaped by illuminance, contrast, and occlusion:

    p = p_base * g_E(E) * c**gamma * (1 - occ)

where g_E ramps linearly in log10(E) from e_min (no detection at or below)
to e_sat (fully lit). Occlusion is purely geometric: the fraction of sample
rays from the camera to a small disc around the hand that are blocked by
arm links or conveyor objects, and 1.0 whenever the hand leaves the field
of view.
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


def hand_detected(u: float, p_clear: float, cam: tuple, hand: tuple,
                  segments, discs) -> bool:
    """Whether a uniform draw u detects the in-view hand.

    Detection holds iff u < p_clear * (1 - occ), with occ the blocked
    fraction of the sample-ray fan. That threshold falls as the blocked
    count rises, so detection holds iff fewer rays are blocked than the
    least count whose threshold u reaches; the ray tests stop as soon as
    the count so far settles that. Blockers are given as in
    occlusion_fraction.
    """
    if u >= p_clear:
        return False
    cam_x, cam_y = cam
    hand_x, hand_y = hand
    near = _near_blockers(cam_x, cam_y, hand_x, hand_y, segments, discs)
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
