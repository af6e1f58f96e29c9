"""The line sweep of `oracle.s_enumerate` against the point-by-point scan
it replaced.

`ref_s_enumerate` tests every point of the box against every piece with
`cones.member` and `lattice.member`.  The inputs are seeded fans of rank
1–4, their stellar subdivisions, roots and minimal fans, and the same
pieces with lattices replaced by random ones of the same rank, some
inside the cone's span and some not: a lattice-skip rule that only looks
at the rank or the saturation of the lattice fails on the latter.
"""

import random
from itertools import product

import pytest

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
from tropfan import oracle

import _gen


def ref_s_enumerate(obj, radius):
    """All points of the S-set inside the box [-radius, radius]^n."""
    n = obj.ambient_rank
    pieces = obj.pieces if isinstance(obj, MIN.MinimalFan) else obj.cones
    out = []
    for v in product(range(-radius, radius + 1), repeat=n):
        if all(x == 0 for x in v) or any(
            C.member(p.cone, v) and L.member(v, p.lattice) for p in pieces
        ):
            out.append(v)
    return out


RADII = {1: 5, 2: 3, 3: 2, 4: 2}


def _seeded_fans(rng, n):
    if n == 2:
        fan = _gen.random_complete_fan2(rng)
        if rng.random() < 0.5:
            maxs = F.maximal_cones(fan)
            del maxs[rng.randrange(len(maxs))]
            fan = F.fan_from_maximal(maxs, 2)
    else:
        fan = _gen.random_orthant_fan(rng, n)
    sub = _gen.random_stellar(rng, fan)
    root = _gen.global_root(fan, rng.choice([2, 3]))
    return [fan, sub, root, MIN.minimal_fan(fan), MIN.minimal_fan(sub)]


def _random_lattice(rng, sc, in_span):
    """A random lattice of the rank of sc's lattice, generated inside the
    cone's span or by arbitrary small vectors."""
    n, k = sc.ambient_rank, sc.lattice.rank
    while True:
        if in_span:
            gens = [
                [sum(rng.randint(-2, 2) * b[i] for b in sc.cone.span_basis) for i in range(n)]
                for _ in range(k)
            ]
        else:
            gens = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        lat = L.canonicalize(gens, n)
        if lat.rank == k:
            return lat


def _mutated(rng, obj):
    """The same pieces, each lattice replaced with probability 1/2."""
    pieces = obj.pieces if isinstance(obj, MIN.MinimalFan) else obj.cones
    out = []
    for sc in pieces:
        if sc.dim > 0 and rng.random() < 0.5:
            sc = F.StackyCone(sc.cone, _random_lattice(rng, sc, rng.random() < 0.5))
        out.append(sc)
    return MIN.MinimalFan(obj.ambient_rank, tuple(out))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_matches_point_scan(n):
    rng = random.Random(n)
    for _ in range(6):
        for obj in _seeded_fans(rng, n):
            for radius in (0, 1, RADII[n]):
                assert oracle.s_enumerate(obj, radius) == ref_s_enumerate(obj, radius)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_matches_point_scan_on_mutated_lattices(n):
    rng = random.Random(100 + n)
    outside = 0
    for _ in range(6):
        for obj in _seeded_fans(rng, n):
            mutated = _mutated(rng, obj)
            outside += any(
                not L.contains(F.span_lattice(p.cone), p.lattice) for p in mutated.pieces
            )
            for radius in (0, 1, RADII[n]):
                want = ref_s_enumerate(mutated, radius)
                assert oracle.s_enumerate(mutated, radius) == want
    if n > 1:
        assert outside  # some lattice leaves its cone's span


def test_lattice_outside_span():
    # The ray through (1, 0) with the lattice generated by (1, 1): a
    # rank-1 lattice that meets the ray only at the origin.
    ray = F.StackyCone(C.from_rays([(1, 0)], 2), L.canonicalize([(1, 1)], 2))
    fan = MIN.MinimalFan(2, (ray,))
    assert oracle.s_enumerate(fan, 2) == ref_s_enumerate(fan, 2) == [(0, 0)]


def test_negative_radius_is_empty():
    fan = _gen.random_complete_fan2(random.Random(0))
    assert oracle.s_enumerate(fan, -1) == ref_s_enumerate(fan, -1) == []
