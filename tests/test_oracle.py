"""The line sweep of `oracle.s_enumerate` against the point-by-point scan
it replaced.

`ref_s_enumerate` tests every point of the box against every piece with
`cones.member` and `lattice.member`.  The inputs are seeded fans of rank
1–4, their stellar subdivisions, roots and minimal fans, and the same
pieces with lattices replaced by random ones of the same rank, some
inside the cone's span and some not: a lattice-skip rule that only looks
at the rank or the saturation of the lattice fails on the latter.
`lattice.line_solve`, which gives the sweep each line's lattice points,
is checked against `lattice.member` at every point of the lines.  Count
tests pin the exact work the sweep skips (membership and lattice
containment tests), and a guard makes the symbolic procedures the oracle
checks raise while it runs.
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


# Lattices whose HNF has its last pivot in the last column with an entry
# above 1 (each line's points are a progression with that step), and one
# with no pivot there (a line holds at most one point of it).
EXPLICIT_LATTICES = {2: [[(1, 0), (0, 3)], [(1, 1), (0, 2)], [(2, 4)]]}


def _seeded_lattices(n):
    """The explicit lattices of Z^n and eight seeded ones of each rank
    0..n, generated by small vectors, so most are not saturated."""
    rng = random.Random(200 + n)
    out = [L.canonicalize(gens, n) for gens in EXPLICIT_LATTICES.get(n, [])]
    for k in range(n + 1):
        for _ in range(8):
            gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            out.append(L.canonicalize(gens, n))
    return out


def _line_points(solved, ts):
    if solved is None:
        return []
    s, d = solved
    return [t for t in ts if (t - s) % d == 0] if d else [t for t in ts if t == s]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_line_solve_matches_member(n):
    radius = 2 if n == 4 else 3
    box = range(-radius, radius + 1)
    ts = range(-4 * radius, 4 * radius + 1)
    ranks, steps = set(), set()  # steps of the nonzero lattices' lines
    for lat in _seeded_lattices(n):
        ranks.add(lat.rank)
        if lat.rank:
            steps.add(min(lat.basis[-1][-1], 2) if lat.pivots[-1] == n - 1 else 0)
        for u in product(box, repeat=n - 1):
            want = [t for t in ts if L.member(u + (t,), lat)]
            assert _line_points(L.line_solve(u, lat), ts) == want, (lat.basis, u)
    assert ranks == set(range(n + 1))
    assert {0, 2} & steps == ({0, 2} if n > 1 else {2})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_matches_point_scan_on_seeded_lattices(n):
    rng = random.Random(300 + n)
    lattices = _seeded_lattices(n)
    for obj in _seeded_fans(rng, n)[:2]:
        pieces = obj.pieces if isinstance(obj, MIN.MinimalFan) else obj.cones
        seeded = MIN.MinimalFan(
            n, tuple(F.StackyCone(sc.cone, rng.choice(lattices)) for sc in pieces)
        )
        for radius in (0, 1, 3):
            assert oracle.s_enumerate(seeded, radius) == ref_s_enumerate(seeded, radius)


def test_sweep_on_explicit_lattices():
    # Each explicit lattice on a cone that spans Z^2, on a ray inside its
    # span and on a ray outside it.
    cones = [
        C.from_rays(rays, 2)
        for rays in ([(1, 0), (1, 2)], [(-1, 1), (0, -1)], [(1, 2)], [(1, 0)])
    ]
    for gens in EXPLICIT_LATTICES[2]:
        lattice = L.canonicalize(gens, 2)
        for cone in cones:
            fan = MIN.MinimalFan(2, (F.StackyCone(cone, lattice),))
            for radius in (0, 1, 3):
                assert oracle.s_enumerate(fan, radius) == ref_s_enumerate(fan, radius)


def test_sweep_makes_no_membership_test(monkeypatch):
    fan = _gen.global_root(_gen.random_orthant_fan(random.Random(7), 3), 2)
    assert any(sc.lattice != F.span_lattice(sc.cone) for sc in fan.cones)
    sweep, member = oracle._sweep_piece, L.member
    sweeping, calls = [False], []

    def counted_sweep(*args):
        sweeping[0] = True
        try:
            sweep(*args)
        finally:
            sweeping[0] = False

    def counted_member(v, lattice):
        calls.append(sweeping[0])
        return member(v, lattice)

    monkeypatch.setattr(oracle, "_sweep_piece", counted_sweep)
    monkeypatch.setattr(L, "member", counted_member)
    assert oracle.s_enumerate(fan, 2) == ref_s_enumerate(fan, 2)
    assert calls and not any(calls)  # the reference scan calls it; the sweep never


def test_saturated_fan_makes_no_lattice_containment_test(monkeypatch):
    # Every face of a complete rank-2 fan with full lattices lies in a
    # saturated piece with more rays, which settles that the face adds no
    # point.
    fans = [_gen.random_complete_fan2(random.Random(s), full_lattice_only=True) for s in range(4)]
    assert all(sc.saturated for fan in fans for sc in fan.cones)
    calls = []
    contains = L.contains
    monkeypatch.setattr(L, "contains", lambda *a: calls.append(a) or contains(*a))
    for fan in fans:
        assert oracle.s_enumerate(fan, 3) == ref_s_enumerate(fan, 3)
    assert calls == []


@pytest.mark.parametrize("radius", [-1, 0, 3])
def test_rank_zero_gives_the_origin(radius):
    zero = F.StackyCone(C.zero_cone(0), L.zero_lattice(0))
    for obj in (F.make_fan([zero], 0), MIN.MinimalFan(0, (zero,)), MIN.MinimalFan(0, ())):
        assert oracle.s_enumerate(obj, radius) == ref_s_enumerate(obj, radius) == [()]


def test_saturated_face_of_a_finer_piece_adds_points():
    # The ray (0, 1) with its full span lattice is a face of the quadrant
    # with lattice <(1, 0), (0, 2)>: the ray is saturated, the quadrant is
    # not, so the ray's odd points are its own.
    quadrant = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 2)], 2)
    ray = F.stacky_cone([(0, 1)], [(0, 1)], 2)
    fan = MIN.MinimalFan(2, (quadrant, ray))
    listed = oracle.s_enumerate(fan, 3)
    assert listed == ref_s_enumerate(fan, 3)
    assert (0, 1) in listed and (0, 3) in listed


@pytest.mark.parametrize("n, radius", [(2, 8), (3, 4)])
def test_sweep_matches_point_scan_at_workload_radii(n, radius):
    rng = random.Random(400 + n)
    for obj in _seeded_fans(rng, n)[:4]:
        for fan in (obj, _mutated(rng, obj)):
            assert oracle.s_enumerate(fan, radius) == ref_s_enumerate(fan, radius)


def test_sweep_calls_no_symbolic_decision(monkeypatch):
    # The oracle cross-checks these functions, so it must not use them.
    fans = []
    for n in (2, 3):
        rng = random.Random(500 + n)
        fans += _seeded_fans(rng, n)
    assert any(isinstance(f, F.StackyFan) for f in fans)
    assert any(isinstance(f, MIN.MinimalFan) for f in fans)

    def refuse(*args):
        raise AssertionError("the oracle called a symbolic decision procedure")

    for module, name in (
        (F, "maximal_cones"),
        (C, "union_difference"),
        (C, "uncovered_point"),
        (MIN, "s_sets_equal"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for fan in fans:
        oracle.s_enumerate(fan, 2)
