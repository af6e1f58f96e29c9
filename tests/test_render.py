"""The dots of `render.render_svg`, which come from the oracle's box sweep,
against the point-by-point scan they replaced (`ref_render_points`).

The inputs are every rank-2 stacky fan and coloring under `fixtures/`,
seeded complete and partial rank-2 fans, their global roots of index 2
and 3 and the minimal fans of all of these, and single pieces of each
dimension on lattices inside and outside their cone's span.
"""

import random
import re

import pytest

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.render as R
import tropfan.serialize as SER
from conftest import FIXTURES

import _gen
from _ref import ref_render_points

CIRCLE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="3" fill="([^"]+)"/>')


def _circles(svg):
    return CIRCLE.findall(svg)


def _expected(obj, radius):
    return [
        (R._fmt(px), R._fmt(py), fill)
        for x, y, fill in ref_render_points(obj, radius)
        for px, py in [R._to_px(x, y)]
    ]


def _fixture_objects():
    out = []
    for path in sorted(FIXTURES.rglob("*.json")):
        try:
            kind, obj = SER.load_path(path)
        except SER.ParseError:
            continue
        if kind in ("stacky_fan", "coloring") and obj.ambient_rank == 2:
            out.append(obj)
    return out


def _seeded_objects():
    out = []
    for seed in range(6):
        rng = random.Random(700 + seed)
        fan = _gen.random_complete_fan2(rng)
        maxs = F.maximal_cones(fan)
        del maxs[rng.randrange(len(maxs))]
        for f in (fan, F.fan_from_maximal(maxs, 2)):
            for g in (f, _gen.global_root(f, 2), _gen.global_root(f, 3)):
                out += [g, MIN.minimal_fan(g)]
    return out


def _single_pieces():
    """One piece per cone and lattice: a full cone, a ray inside the
    lattice's span and a ray outside it, and the zero cone next to a full
    cone."""
    cones = [C.from_rays(rays, 2) for rays in ([(1, 0), (1, 2)], [(1, 2)], [(1, 0)])]
    out = []
    for gens in ([(1, 0), (0, 3)], [(1, 1), (0, 2)], [(2, 4)]):
        lattice = L.canonicalize(gens, 2)
        out += [MIN.MinimalFan(2, (F.StackyCone(c, lattice),)) for c in cones]
        zero = F.StackyCone(C.zero_cone(2), L.zero_lattice(2))
        out.append(MIN.MinimalFan(2, (zero, F.StackyCone(cones[0], lattice))))
    return out


@pytest.mark.parametrize("source", ["fixtures", "seeded", "single"])
def test_render_dots_match_point_scan(source):
    objects = {
        "fixtures": _fixture_objects,
        "seeded": _seeded_objects,
        "single": _single_pieces,
    }[source]()
    assert objects
    dims, unsaturated = set(), 0
    for obj in objects:
        for p in MIN._pieces_of(obj):
            dims.add(p.dim)
            unsaturated += p.lattice != F.span_lattice(p.cone)
        for radius in range(7):
            assert _circles(R.render_svg(obj, radius)) == _expected(obj, radius)
    assert unsaturated
    if source == "single":
        assert dims == {0, 1, 2}
