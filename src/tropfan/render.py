"""Deterministic SVG rendering of rank-2 fans and colorings.

Maximal cones are shaded with one color per sublattice (stable palette
keyed by the canonical lattice basis), rays are drawn as arrows, and the
lattice points of each piece's sublattice are drawn as dots within a
configurable radius, taken from the oracle's line-by-line box sweep of
the piece (`oracle._sweep_piece`: each line x of the box gets the set of
y of the piece's points on it).  Output is plain text and byte-stable for
golden tests.
"""

import math

from . import minimal as MIN
from . import oracle

PALETTE = (
    "#4477aa",  # blue
    "#cc3311",  # red
    "#228833",  # green
    "#ccbb44",  # yellow
    "#aa3377",  # purple
    "#66ccee",  # cyan
    "#ee7733",  # orange
)

SIZE = 420
CENTER = SIZE // 2
SCALE = 44


class RankError(ValueError):
    pass


def _fmt(x):
    return f"{x:.2f}"


def _to_px(x, y):
    return CENTER + SCALE * x, CENTER - SCALE * y


def _unit(v):
    length = math.hypot(v[0], v[1])
    return v[0] / length, v[1] / length


def _wedge_path(rays):
    """Polygon approximating a 2-dimensional cone, clipped far outside."""
    (a, b) = (_unit(rays[0]), _unit(rays[-1]))
    start = math.atan2(a[1], a[0])
    end = math.atan2(b[1], b[0])
    while end <= start:
        end += 2 * math.pi
    if end - start > 2 * math.pi - 1e-9:
        end = start + 2 * math.pi
    steps = max(2, int(math.ceil((end - start) / 0.3)))
    reach = SIZE * 2
    points = [(CENTER, CENTER)]
    for i in range(steps + 1):
        ang = start + (end - start) * i / steps
        px, py = _to_px(math.cos(ang) * reach / SCALE, math.sin(ang) * reach / SCALE)
        points.append((px, py))
    return " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)


def _oriented_rays(cone):
    """The two extreme rays ordered counterclockwise (2-dim cones)."""
    r1, r2 = cone.rays
    cross = r1[0] * r2[1] - r1[1] * r2[0]
    return (r1, r2) if cross > 0 else (r2, r1)


def render_svg(obj, radius=4):
    pieces = MIN._pieces_of(obj)
    if any(p.ambient_rank != 2 for p in pieces) or (
        not pieces and getattr(obj, "ambient_rank", 2) != 2
    ):
        raise RankError("rendering is only supported in ambient rank 2")
    lattices = sorted({p.lattice for p in pieces}, key=lambda l: l.basis)
    color_of = {lat: PALETTE[i % len(PALETTE)] for i, lat in enumerate(lattices)}
    ordered = sorted(pieces, key=lambda p: (p.dim, p.cone.rays))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    # Shaded maximal cones.
    for p in ordered:
        if p.dim != 2:
            continue
        path = _wedge_path(_oriented_rays(p.cone))
        lines.append(
            f'<polygon points="{path}" fill="{color_of[p.lattice]}" '
            f'fill-opacity="0.25" stroke="none"/>'
        )
    # Rays as arrows.
    ray_set = sorted({r for p in pieces for r in p.cone.rays})
    for r in ray_set:
        ux, uy = _unit(r)
        tip = _to_px(ux * 150 / SCALE, uy * 150 / SCALE)
        lines.append(
            f'<line x1="{CENTER}" y1="{CENTER}" x2="{_fmt(tip[0])}" '
            f'y2="{_fmt(tip[1])}" stroke="black" stroke-width="1.5"/>'
        )
        for side in (0.35, -0.35):
            ca, sa = math.cos(math.pi + side), math.sin(math.pi + side)
            hx = ux * ca - uy * sa
            hy = ux * sa + uy * ca
            end = (tip[0] - hx * -10, tip[1] + hy * -10)
            lines.append(
                f'<line x1="{_fmt(tip[0])}" y1="{_fmt(tip[1])}" '
                f'x2="{_fmt(end[0])}" y2="{_fmt(end[1])}" '
                f'stroke="black" stroke-width="1.5"/>'
            )
    # Lattice points of each piece within the radius, from the oracle's
    # box sweep, x then y; the first piece to reach a point gives its color.
    xs = [(x,) for x in range(-radius, radius + 1)]
    drawn = set()
    for p in ordered:
        ts = {}
        oracle._sweep_piece(p, radius, xs, ts)
        points = oracle._in_order(xs, ts)
        for x, y in points:
            if (x, y) in drawn:
                continue
            px, py = _to_px(x, y)
            lines.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                f'fill="{color_of[p.lattice]}"/>'
            )
        drawn.update(points)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
