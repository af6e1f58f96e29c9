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

    def test_no_witness_when_equal(self):
        m1 = MIN.minimal_fan(load("p2.json"))
        m2 = MIN.minimal_fan(load("trivial.json"))
        assert MIN.s_witness(m1, m2) is None


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

    def test_coloring_is_complete(self):
        assert MIN.coloring_is_complete(MIN.minimal_fan(load("trivial.json")))
        assert MIN.coloring_is_complete(MIN.minimal_fan(load("delta_fig.json")))
        assert not MIN.coloring_is_complete(MIN.minimal_fan(load("quadrant.json")))
