import itertools
import random

import pytest

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.oracle as oracle
import tropfan.serialize as SER
from conftest import FIXTURES

import _gen
from _ref import ref_merge_pieces, ref_overlay_mismatch, ref_uncovered_point


def load(name):
    return SER.load_path(str(FIXTURES / name))[1]


class TestMinimalFan:
    def test_delta_fig_pieces(self):
        m = MIN.minimal_fan(load("delta_fig.json"))
        assert len(m.pieces) == 3
        lattices = {p.lattice for p in m.pieces}
        assert L.full_lattice(2) in lattices
        assert L.canonicalize([(2, 0), (0, 1)], 2) in lattices
        assert len(lattices) == 2
        red = [p for p in m.pieces if p.lattice != L.full_lattice(2)]
        assert len(red) == 1
        assert red[0].cone.rays == ((-2, -1), (0, 1))

    def test_trivial_stays_four_quadrants(self):
        # Merging adjacent quadrants would create a half-plane, which is
        # not a pointed cone, so the four full-lattice pieces remain.
        m = MIN.minimal_fan(load("trivial.json"))
        assert len(m.pieces) == 4
        assert all(p.lattice == L.full_lattice(2) for p in m.pieces)

    def test_split_quadrant_merges(self):
        m = MIN.minimal_fan(load("split_quadrant.json"))
        assert len(m.pieces) == 1
        assert m.pieces[0].cone.rays == ((0, 1), (1, 0))

    @pytest.mark.parametrize(
        "n",
        [
            2,
            pytest.param(
                3,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="no two pieces of the subdivision have a convex union, "
                    "so greedy pairwise merging keeps all three",
                ),
            ),
        ],
    )
    def test_stellar_subdivision_merges_back(self, n):
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        orthant = F.fan_from_maximal(
            [F.StackyCone(C.from_rays(units, n), L.full_lattice(n))], n
        )
        sub = F.stellar_subdivision(orthant, (1,) * n)
        assert MIN.minimal_fan(sub) == MIN.minimal_fan(orthant)
        assert len(MIN.minimal_fan(sub).pieces) == 1

    def test_merges_make_no_from_rays_call(self, monkeypatch):
        trivial = load("trivial.json")
        units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        orthant = F.fan_from_maximal(
            [F.StackyCone(C.from_rays(units, 3), L.full_lattice(3))], 3
        )
        octants = F.fan_from_maximal(
            [
                F.StackyCone(
                    C.from_rays([[s * x for x in e] for s, e in zip(signs, units)], 3),
                    L.full_lattice(3),
                )
                for signs in itertools.product((1, -1), repeat=3)
            ],
            3,
        )
        fans = [
            trivial,
            F.stellar_subdivision(trivial, (1, 1)),
            orthant,
            F.stellar_subdivision(orthant, (1, 1, 1)),
            octants,
        ]
        calls = []
        from_rays = C.from_rays
        monkeypatch.setattr(C, "from_rays", lambda *a: calls.append(a) or from_rays(*a))
        pieces = [len(MIN.minimal_fan(fan).pieces) for fan in fans]
        assert calls == []
        # Two adjacent quadrants make a half-plane, so the four quadrants
        # stay four pieces, but subdivided at (1, 1) they merge to three.
        assert pieces == [4, 3, 1, 3, 8]

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(10):
            fan = _gen.random_fan(rng)
            m = MIN.minimal_fan(fan)
            again = MIN.minimal_fan(m)
            assert again.pieces == m.pieces

    def test_semantic_equality(self):
        # Structurally different piece lists with the same point set.
        m_p2 = MIN.minimal_fan(load("p2.json"))
        m_trivial = MIN.minimal_fan(load("trivial.json"))
        assert m_p2 == m_trivial


class TestEquivalence:
    def test_representable_class_trivial(self):
        p2 = load("p2.json")
        hirz = load("hirzebruch.json")
        trivial = load("trivial.json")
        assert MIN.birationally_equivalent(p2, hirz)
        assert MIN.birationally_equivalent(p2, trivial)
        assert MIN.birationally_equivalent(hirz, trivial)

    def test_delta_fig_not_trivial(self):
        assert not MIN.birationally_equivalent(load("delta_fig.json"), load("trivial.json"))

    def test_root_changes_class(self):
        fan = load("trivial.json")
        assert not MIN.birationally_equivalent(fan, _gen.global_root(fan, 5))

    def test_subdivision_preserves_class(self):
        rng = random.Random(13)
        for _ in range(5):
            fan = _gen.random_fan(rng)
            sub = _gen.random_stellar(rng, fan)
            assert MIN.birationally_equivalent(fan, sub)

    def test_different_supports(self):
        assert not MIN.birationally_equivalent(load("quadrant.json"), load("trivial.json"))


class TestWitness:
    def _check_witness(self, a, b):
        w = MIN.s_witness(MIN.minimal_fan(a), MIN.minimal_fan(b))
        assert w is not None
        in_a = _gen.minimal_set_member(w, MIN.minimal_fan(a))
        in_b = _gen.minimal_set_member(w, MIN.minimal_fan(b))
        assert in_a != in_b

    def test_lattice_mismatch_witness(self):
        self._check_witness(load("delta_fig.json"), load("trivial.json"))

    def test_support_mismatch_witness(self):
        self._check_witness(load("quadrant.json"), load("trivial.json"))

    def test_root_witness(self):
        fan = load("trivial.json")
        self._check_witness(fan, _gen.global_root(fan, 5))

    def test_ray_inside_quadrant_witness(self):
        # The ray holds the quadrant's interior point but covers none of
        # the quadrant; the oracle tells the S-sets apart.
        quadrant, ray = _gen.quadrant_and_diagonal_ray()
        assert oracle.s_enumerate(quadrant, 2) != oracle.s_enumerate(ray, 2)
        assert not MIN.birationally_equivalent(quadrant, ray)
        assert not MIN.birationally_equivalent(ray, quadrant)
        self._check_witness(quadrant, ray)
        self._check_witness(ray, quadrant)

    def test_no_witness_when_equal(self):
        m1 = MIN.minimal_fan(load("p2.json"))
        m2 = MIN.minimal_fan(load("trivial.json"))
        assert MIN.s_witness(m1, m2) is None


def ref_same_union(cones1, cones2):
    """The support test before `cones.union_difference`: each list's cones
    covered by the other list, by the fully split `ref_uncovered_point`."""
    return all(ref_uncovered_point(c, cones2) is None for c in cones1) and all(
        ref_uncovered_point(c, cones1) is None for c in cones2
    )


def ref_s_witness(a, b):
    """`s_witness` before `cones.union_difference`, with one uncovered-point
    loop per side and the support witness taken from that side's pieces,
    over the references: the fully split `ref_uncovered_point` and the
    all-pairs `ref_overlay_mismatch`."""
    p1, p2 = MIN._pieces_of(a), MIN._pieces_of(b)
    c1 = [p.cone for p in p1]
    c2 = [p.cone for p in p2]
    for target in c1:
        pt = ref_uncovered_point(target, c2)
        if pt is not None:
            return MIN._support_witness(pt, p1)
    for target in c2:
        pt = ref_uncovered_point(target, c1)
        if pt is not None:
            return MIN._support_witness(pt, p2)
    mismatch = ref_overlay_mismatch(p1, p2)
    if mismatch is None:
        return None
    cell, r1, r2 = mismatch
    v = MIN._lattice_difference_vector(r1, r2)
    interior = C.interior_point(cell)
    e = L.index_in(L.intersect(r1, r2), F.span_lattice(cell))
    step = tuple(e * x for x in interior)
    w = tuple(v)
    while C.contains_point(cell, w) != C.RELATIVE_INTERIOR:
        w = tuple(x + y for x, y in zip(w, step))
    return w


def test_overlay_skips_pairs_with_equal_lattices(monkeypatch):
    """Pieces that all carry Z^2 are compared with no cell built; pieces
    with different lattices, of one rank and one first basis row among
    them, still give the reference's first mismatch."""
    fan = load("p2.json")
    sub = F.stellar_subdivision(fan, (1, 1))
    delta, trivial = load("delta_fig.json"), load("trivial.json")
    quadrant = C.from_rays([(1, 0), (0, 1)], 2)
    halved = F.StackyCone(quadrant, L.canonicalize([(1, 0), (0, 2)], 2))
    whole = F.StackyCone(quadrant, L.full_lattice(2))
    pairs = [
        (F.maximal_cones(delta), F.maximal_cones(trivial)),
        ([halved], [whole]),
        ([whole], [halved]),
    ]
    expected = [ref_overlay_mismatch(p1, p2) for p1, p2 in pairs]
    assert None not in expected
    calls = []
    real = C.intersect_cones
    monkeypatch.setattr(C, "intersect_cones", lambda *a: calls.append(a) or real(*a))
    assert MIN._overlay_mismatch(F.maximal_cones(fan), F.maximal_cones(sub)) is None
    assert calls == []
    assert [MIN._overlay_mismatch(p1, p2) for p1, p2 in pairs] == expected


def _support_pairs(seed):
    """Seeded rank-2/3 fan pairs: a fan against itself with one maximal
    cone dropped (both orders), against a stellar subdivision, against a
    root, and against an unrelated fan of its rank (both orders)."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(6):
        a = _gen.random_fan(rng)
        n = a.ambient_rank
        other = _gen.random_complete_fan2(rng) if n == 2 else _gen.random_fan3(rng)
        pairs += [(a, _gen.random_stellar(rng, a)), (a, _gen.global_root(a, 2))]
        pairs += [(a, other), (other, a)]
        maxs = F.maximal_cones(a)
        if len(maxs) > 1:
            k = rng.randrange(len(maxs))
            dropped = F.fan_from_maximal(maxs[:k] + maxs[k + 1 :], n)
            pairs += [(a, dropped), (dropped, a)]
    return pairs


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_union_difference_and_witness(self, seed):
        sides = set()
        for a, b in _support_pairs(seed):
            c1 = [p.cone for p in F.maximal_cones(a)]
            c2 = [p.cone for p in F.maximal_cones(b)]
            pt = C.union_difference(c1, c2)
            assert (pt is None) == ref_same_union(c1, c2)
            assert F.supports_equal(a, b) == (pt is None)
            if pt is None:
                sides.add("equal")
            else:
                in1 = any(C.member(c, pt) for c in c1)
                in2 = any(C.member(c, pt) for c in c2)
                assert in1 != in2
                sides.add("first" if in1 else "second")
            assert MIN.s_witness(a, b) == ref_s_witness(a, b)
            ma, mb = MIN.minimal_fan(a), MIN.minimal_fan(b)
            assert MIN.s_witness(ma, mb) == ref_s_witness(ma, mb)
        assert sides == {"equal", "first", "second"}

    @pytest.mark.parametrize("seed", range(6))
    def test_overlay_mismatch(self, seed):
        """The first mismatch over the pairs with different lattices is
        the first over all pairs, on supports equal or not."""
        found = 0
        for a, b in _support_pairs(seed):
            p1, p2 = F.maximal_cones(a), F.maximal_cones(b)
            expected = ref_overlay_mismatch(p1, p2)
            assert MIN._overlay_mismatch(p1, p2) == expected
            found += expected is not None
        assert found > 0


class TestSetMembership:
    def test_against_enumeration(self):
        m = MIN.minimal_fan(load("delta_fig.json"))
        listed = set(oracle.s_enumerate(m, 4))
        for x in range(-4, 5):
            for y in range(-4, 5):
                assert _gen.minimal_set_member((x, y), m) == ((x, y) in listed)

    def test_odd_x_excluded_in_red_cone(self):
        m = MIN.minimal_fan(load("delta_fig.json"))
        assert not _gen.minimal_set_member((-1, 0), m)
        assert _gen.minimal_set_member((-2, 0), m)
        assert _gen.minimal_set_member((1, 0), m)

    def test_origin_always_member(self):
        m = MIN.minimal_fan(load("quadrant.json"))
        assert _gen.minimal_set_member((0, 0), m)

    def test_s_enumerate_keeps_face_with_finer_lattice(self):
        # The ray (1, 0) carries Z(1, 0), finer than the 2Z(1, 0) that the
        # quadrant's lattice 2Z^2 induces on it, so its odd points count.
        fan = F.make_fan(
            [
                F.stacky_cone([], [], 2),
                F.stacky_cone([(1, 0)], [(1, 0)], 2),
                F.stacky_cone([(0, 1)], [(0, 2)], 2),
                F.stacky_cone([(1, 0), (0, 1)], [(2, 0), (0, 2)], 2),
            ],
            2,
        )
        listed = set(oracle.s_enumerate(fan, 3))
        box = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        every_cone = {
            v
            for v in box
            if v == (0, 0)
            or any(C.member(sc.cone, v) and L.member(v, sc.lattice) for sc in fan.cones)
        }
        assert listed == every_cone
        assert {(1, 0), (3, 0), (2, 2)} <= listed
        assert not {(0, 1), (1, 1), (3, 2)} & listed


class TestColoring:
    def test_to_coloring_groups_by_lattice(self):
        coloring = MIN.to_coloring(load("delta_fig.json"))
        assert len(coloring.colors) == 2
        assert MIN.validate_coloring(coloring) == []

    def test_to_coloring_requires_complete(self):
        with pytest.raises(MIN.CompletenessRequiredError):
            MIN.to_coloring(load("quadrant.json"))

    def test_round_trip_preserves_class(self):
        fan = load("delta_fig.json")
        m = MIN.from_coloring(MIN.to_coloring(fan))
        assert m == MIN.minimal_fan(fan)

    def test_overlapping_colors_invalid(self):
        q = C.from_rays([(1, 0), (0, 1)], 2)
        coloring = MIN.SublatticeColoring(
            2,
            (
                (L.full_lattice(2), (q,)),
                (L.canonicalize([(2, 0), (0, 1)], 2), (q,)),
            ),
        )
        assert MIN.validate_coloring(coloring)
        with pytest.raises(MIN.ColoringInvalidError):
            MIN.from_coloring(coloring)

    @pytest.mark.parametrize("quadrant_basis", [[(1, 0), (0, 1)], [(3, 0), (0, 1)]])
    def test_ray_inside_a_region_conflicts_in_either_color_order(self, quadrant_basis):
        """The ray cone((1, 1)) with lattice <(2, 2)> lies in the interior
        of the quadrant, whose lattice restricts to <(1, 1)> or <(3, 3)>
        on it.  Z^2 sorts before <(2, 2)> and <(3, 0), (0, 1)> after it;
        either way the regions conflict."""
        ray = C.from_rays([(1, 1)], 2)
        q = C.from_rays([(1, 0), (0, 1)], 2)
        colors = sorted(
            [(L.canonicalize([(2, 2)], 2), (ray,)),
             (L.canonicalize(quadrant_basis, 2), (q,))],
            key=lambda color: color[0].basis,
        )
        for order in (colors, colors[::-1]):
            coloring = MIN.SublatticeColoring(2, tuple(order))
            assert MIN.validate_coloring(coloring) == [
                "regions of two colors overlap on cone ((1, 1),)"
            ]

    def test_face_of_a_region_is_no_overlap(self):
        """Z^2 on the quadrant and on its face cone((1, 0)): one color, or
        two once regrouped by `coloring_of` (the face's lattice is then
        <(1, 0)>).  The face meets the quadrant's boundary only, so both
        are valid and both give the quadrant's class."""
        q = C.from_rays([(1, 0), (0, 1)], 2)
        face = C.from_rays([(1, 0)], 2)
        one_color = MIN.SublatticeColoring(2, ((L.full_lattice(2), (q, face)),))
        regrouped = MIN.coloring_of(MIN._color_pieces(one_color.colors), 2)
        assert len(regrouped.colors) == 2
        for coloring in (one_color, regrouped):
            assert MIN.validate_coloring(coloring) == []
            assert MIN.from_coloring(coloring) == MIN.minimal_fan(load("quadrant.json"))

    @pytest.mark.parametrize("seed", range(30))
    def test_full_dimensional_regions_keep_the_containment_rule(self, seed):
        """On colorings whose regions all have full dimension, the verdict
        and the messages, in order, are those of the rule "the
        intersection has the dimension of the first color's region"."""
        rng = random.Random(seed)
        n = 2 if seed % 3 else 3
        fans = [_gen.random_complete_fan2(rng) if n == 2 else _gen.random_fan3(rng)
                for _ in range(2)]
        lattices = [L.full_lattice(n), _gen.random_index_lattice(rng, n),
                    _gen.random_index_lattice(rng, n)]
        pieces = [F.StackyCone(sc.cone, rng.choice(lattices))
                  for fan in fans for sc in F.maximal_cones(fan)]
        coloring = MIN.coloring_of(pieces, n)
        want = [
            f"regions of two colors overlap on cone {inter.rays}"
            for i, (_, regions_a) in enumerate(coloring.colors)
            for _, regions_b in coloring.colors[i + 1 :]
            for a in regions_a
            for b in regions_b
            for inter in [C.intersect_cones(a, b)]
            if inter.dim == a.dim
        ]
        assert MIN.validate_coloring(coloring) == want

    @pytest.mark.parametrize("gens", [[(1, 0)], [(1, 0), (0, 0)]])
    def test_rank_deficient_lattice_invalid(self, gens):
        """A color lattice of rank 1 on a 2-dimensional region is a
        violation, and from_coloring refuses it."""
        q = C.from_rays([(1, 0), (0, 1)], 2)
        coloring = MIN.SublatticeColoring(2, ((L.canonicalize(gens, 2), (q,)),))
        assert MIN.validate_coloring(coloring) == [
            "lattice rank 1 != cone dimension 2 for cone with rays ((0, 1), (1, 0))"
        ]
        with pytest.raises(MIN.ColoringInvalidError):
            MIN.from_coloring(coloring)

    def test_coloring_is_complete(self):
        assert MIN.coloring_is_complete(MIN.minimal_fan(load("trivial.json")))
        assert MIN.coloring_is_complete(MIN.minimal_fan(load("delta_fig.json")))
        assert not MIN.coloring_is_complete(MIN.minimal_fan(load("quadrant.json")))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coloring_missing_one_orthant_is_incomplete(self, n):
        axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        orthants = [
            C.from_rays([[s * x for x in e] for s, e in zip(signs, axes)], n)
            for signs in itertools.product((1, -1), repeat=n)
        ]
        full = L.full_lattice(n)
        for k in range(len(orthants)):
            pieces = [F.StackyCone(o, full) for i, o in enumerate(orthants) if i != k]
            fan = F.fan_from_maximal(pieces, n)
            assert not MIN.coloring_is_complete(MIN.minimal_fan(fan))
        whole = F.fan_from_maximal([F.StackyCone(o, full) for o in orthants], n)
        assert MIN.coloring_is_complete(MIN.minimal_fan(whole))

    def test_coloring_is_complete_rank0(self):
        zero = F.StackyCone(C.zero_cone(0), L.zero_lattice(0))
        assert MIN.coloring_is_complete(MIN.minimal_fan(F.make_fan([zero], 0)))

    def test_coloring_is_complete_plans_once(self, monkeypatch):
        # The n + 1 simplicial cones that cover R^n all have dimension n,
        # so the eight octants give one cover plan, not one per simplex.
        axes = [tuple(int(i == j) for j in range(3)) for i in range(3)]
        octants = [
            F.StackyCone(C.from_rays([[s * x for x in e] for s, e in zip(signs, axes)], 3),
                         L.full_lattice(3))
            for signs in itertools.product((1, -1), repeat=3)
        ]
        m = MIN.minimal_fan(F.fan_from_maximal(octants, 3))
        assert len(m.pieces) == 8
        plans = []
        real = C._cover_plan
        monkeypatch.setattr(
            C, "_cover_plan", lambda pieces, dim: plans.append(dim) or real(pieces, dim)
        )
        assert MIN.coloring_is_complete(m)
        assert plans == [3]


def _first_uncovered(cones1, cones2):
    """`union_difference` from `ref_uncovered_point`: the first point
    found, the first list's cones first."""
    for targets, pieces in ((cones1, cones2), (cones2, cones1)):
        for target in targets:
            pt = ref_uncovered_point(target, pieces)
            if pt is not None:
                return pt
    return None


@pytest.mark.parametrize("seed", range(6))
def test_union_difference_is_the_first_uncovered_point(seed):
    for a, b in _support_pairs(seed):
        c1 = [p.cone for p in F.maximal_cones(a)]
        c2 = [p.cone for p in F.maximal_cones(b)]
        want = _first_uncovered(c1, c2)
        assert C.union_difference(c1, c2) == want
        assert (want is None) == ref_same_union(c1, c2)


def test_root_pair_support_test_splits_nothing(monkeypatch):
    """A fan and a root of it have the same cones, so every target of
    `union_difference` is a piece on the other side and none is split."""
    rng = random.Random(41)
    pairs = []
    for _ in range(8):
        a = _gen.random_fan(rng)
        pairs.append((a, _gen.global_root(a, rng.choice((2, 3, 5)))))
    walks = []
    real = C._split_walk
    monkeypatch.setattr(C, "_split_walk", lambda *a: walks.append(a) or real(*a))
    for a, b in pairs:
        c1 = [p.cone for p in F.maximal_cones(a)]
        c2 = [p.cone for p in F.maximal_cones(b)]
        assert C.union_difference(c1, c2) is None
    assert walks == []


def test_each_side_plans_once_per_target_dimension(monkeypatch):
    """On a fan against a stellar subdivision of it, each side builds its
    cover plan at most once per target dimension, and targets share it."""
    rng = random.Random(43)
    pairs = []
    for _ in range(8):
        a = _gen.random_fan(rng)
        pairs.append((a, _gen.random_stellar(rng, a)))
    plans = []
    real = C._cover_plan
    monkeypatch.setattr(
        C, "_cover_plan", lambda pieces, dim: plans.append((id(pieces), dim)) or real(pieces, dim)
    )
    walks = []
    walk = C._split_walk
    monkeypatch.setattr(C, "_split_walk", lambda *a: walks.append(a) or walk(*a))
    for a, b in pairs:
        c1 = [p.cone for p in F.maximal_cones(a)]
        c2 = [p.cone for p in F.maximal_cones(b)]
        plans.clear()
        walks.clear()
        assert C.union_difference(c1, c2) is None
        assert len(plans) == len(set(plans)) <= 2 * len({c.dim for c in c1 + c2})
        assert len(walks) > len(plans)


# --- The merge loop against the restart loop that re-sorts ------------------


def _merge_inputs():
    """(kind, label, pieces): seeded rank-2/3/4 fans with their stellar
    subdivisions and global roots, the stacky-fan and coloring fixtures,
    the pieces `from_coloring` reads, and a cone listed twice with two
    lattices beside two halves of it that merge into a third copy."""
    rng = random.Random(31)
    fans = [_gen.random_fan(rng) for _ in range(10)]
    fans += [_gen.random_orthant_fan(rng, 4) for _ in range(2)]
    for i, fan in enumerate(fans):
        for f in (fan, _gen.random_stellar(rng, fan), _gen.global_root(fan, 3)):
            yield "seeded", f"fan {i}", F.maximal_cones(f)
    colorings = []
    for path in sorted(FIXTURES.rglob("*.json")):
        try:
            kind, obj = SER.load_path(str(path))
        except SER.ParseError:
            continue
        if kind == "stacky_fan":
            yield kind, str(path), F.maximal_cones(obj)
            if not F.validate(obj) and F.is_complete(obj):
                colorings.append(MIN.to_coloring(obj))
        elif kind == "coloring":
            yield kind, str(path), list(obj.pieces)
            colorings.append(MIN.coloring_of(obj.pieces, obj.ambient_rank))
    for k, c in enumerate(colorings):
        yield "from_coloring", f"coloring {k}", MIN._color_pieces(c.colors)
    square, wide = [(1, 0), (0, 1)], [(2, 0), (0, 1)]
    twice = F.make_fan([
        F.stacky_cone(square, square, 2),
        F.stacky_cone(square, wide, 2),
        F.stacky_cone([(1, 0), (1, 1)], square, 2),
        F.stacky_cone([(1, 1), (0, 1)], square, 2),
    ], 2)
    yield "listed_twice", "listed twice", F.maximal_cones(twice)


def _merge_shape(result, pieces):
    """Each result piece as the input object it is, or as every field of
    a new merged piece."""
    given = {id(p) for p in pieces}
    return [
        ("input", id(sc)) if id(sc) in given
        else ("merged", sc.cone.rays, sc.cone.span_basis, sc.cone.facet_normals,
              sc.lattice.basis)
        for sc in result
    ]


def test_merge_pieces_matches_the_restart_loop(monkeypatch):
    """Same pieces in the same order, and the same sequence of pairs
    handed to `merge_across_wall`."""
    tried = []
    real = F.merge_across_wall

    def spy(p, q):
        tried.append((p.cone.rays, p.lattice.basis, q.cone.rays, q.lattice.basis))
        return real(p, q)

    monkeypatch.setattr(F, "merge_across_wall", spy)
    counts = {}
    merged = 0
    for kind, label, pieces in _merge_inputs():
        counts[kind] = counts.get(kind, 0) + 1
        tried.clear()
        got = MIN._merge_pieces(pieces)
        got_tried = list(tried)
        tried.clear()
        want = ref_merge_pieces(pieces)
        assert type(got) is tuple, label
        assert _merge_shape(got, pieces) == _merge_shape(want, pieces), label
        assert got_tried == tried, label
        merged += len(got) < len(pieces)
        if kind == "listed_twice":
            # The union of the halves ties with both listed copies on
            # (dim, rays) and goes after them, as a stable sort puts it.
            assert [sc.lattice.basis for sc in got] == [
                ((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 0), (0, 1))
            ]
            assert got[0] is pieces[0] and got[1] is pieces[1]
    assert counts == {
        "seeded": 36, "stacky_fan": 7, "coloring": 6, "from_coloring": 10, "listed_twice": 1,
    }
    assert merged > 10
