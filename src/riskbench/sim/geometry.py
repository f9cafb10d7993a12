"""Planar geometry helpers for the cell simulation.

Everything works on plain float pairs; the hot simulation loop calls these
thousands of times per run, so no arrays or objects are allocated here.
"""

from __future__ import annotations

import math


def point_segment_distance(px: float, py: float,
                           ax: float, ay: float,
                           bx: float, by: float) -> float:
    """Distance from point P to segment AB."""
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    denom = abx * abx + aby * aby
    if denom <= 0.0:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(apx - t * abx, apy - t * aby)


def segment_segment_distance(ax: float, ay: float, bx: float, by: float,
                             cx: float, cy: float, dx: float, dy: float) -> float:
    """Distance between segments AB and CD (0.0 when they cross).

    Closest-point parametrization with clamping; degenerate segments
    (points) fall out of the same branches.
    """
    d1x = bx - ax
    d1y = by - ay
    d2x = dx - cx
    d2y = dy - cy
    rx = ax - cx
    ry = ay - cy
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry
    if a <= 1e-18 and e <= 1e-18:
        return math.hypot(rx, ry)
    if a <= 1e-18:
        s = 0.0
        t = f / e
        t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    else:
        c = d1x * rx + d1y * ry
        if e <= 1e-18:
            t = 0.0
            s = -c / a
            s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
        else:
            b = d1x * d2x + d1y * d2y
            denom = a * e - b * b
            if denom > 0.0:
                s = (b * f - c * e) / denom
                s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
            else:
                s = 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = -c / a
                s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
            elif t > 1.0:
                t = 1.0
                s = (b - c) / a
                s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
    px = ax + d1x * s - (cx + d2x * t)
    py = ay + d1y * s - (cy + d2y * t)
    return math.hypot(px, py)


def two_link_elbow(base_x: float, base_y: float,
                   ee_x: float, ee_y: float,
                   l1: float, l2: float) -> tuple[float, float]:
    """Elbow position for a 2-link arm reaching from base to end effector.

    Always picks the elbow-up branch so poses never flip between steps.
    A target outside the reachable annulus clamps the inner angle, so the
    arm comes out fully stretched or fully folded along the line to it.
    """
    dx = ee_x - base_x
    dy = ee_y - base_y
    r2 = dx * dx + dy * dy
    cos_inner = (r2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if cos_inner > 1.0:
        cos_inner = 1.0
    elif cos_inner < -1.0:
        cos_inner = -1.0
    inner = math.acos(cos_inner)
    sin_inner = math.sin(inner)
    theta1 = math.atan2(dy, dx) - math.atan2(l2 * sin_inner, l1 + l2 * cos_inner)
    return (base_x + l1 * math.cos(theta1), base_y + l1 * math.sin(theta1))

