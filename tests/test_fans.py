import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.serialize as SER
from conftest import FIXTURES
from tropfan._linalg import dot

import _gen
from _ref import ref_is_complete_by_ridges, ref_restrict_to_span


def load_fan(name):
    kind, obj = SER.load_path(str(FIXTURES / name))
    assert kind == "stacky_fan"
    return obj


class TestValidate:
    @pytest.mark.parametrize(
        "name",
        ["delta_fig.json", "p2.json", "hirzebruch.json", "trivial.json",
         "quadrant.json", "split_quadrant.json"],
    )
    def test_fixtures_valid(self, name):
        assert F.validate(load_fan(name)) == []

    def test_bad_fixture_reports_lattice(self):
        bad = load_fan("delta_fig_bad.json")
        violations = F.validate(bad)
        assert violations
        assert any("lattice incompatibility" in v for v in violations)

    def test_missing_face_detected(self):
        q = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        fan = F.make_fan([q], 2)
        assert any("missing" in v for v in F.validate(fan))

    def test_overlap_not_face_detected(self):
        a = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        b = F.stacky_cone([(1, 1), (-1, 1)], [(1, 0), (0, 1)], 2)
        fan = F.fan_from_maximal([a, b], 2)
        assert any("common face" in v for v in F.validate(fan))


class TestConstruction:
    def test_fan_from_maximal_closure(self):
        q = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        fan = F.fan_from_maximal([q], 2)
        assert len(fan.cones) == 4  # zero, two rays, the quadrant
        assert F.validate(fan) == []

    def test_inconsistent_induced_lattices_raise(self):
        a = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 2)], 2)
        b = F.stacky_cone([(0, 1), (-1, 0)], [(1, 0), (0, 1)], 2)
        with pytest.raises(ValueError, match="inconsistent"):
            F.fan_from_maximal([a, b], 2)

    def test_maximal_cones(self):
        fan = load_fan("trivial.json")
        maxs = F.maximal_cones(fan)
        assert len(maxs) == 4
        assert all(sc.dim == 2 for sc in maxs)


def ref_maximal_cones(fan):
    """The containment scan over all pairs of cones, before the ray-set pass."""
    return [
        sc
        for sc in fan.cones
        if not any(
            other is not sc
            and other.dim > sc.dim
            and C.contains_cone(other.cone, sc.cone)
            for other in fan.cones
        )
    ]


class TestMaximalCones:
    def _same(self, fan):
        got, ref = F.maximal_cones(fan), ref_maximal_cones(fan)
        assert len(got) == len(ref)
        assert all(a is b for a, b in zip(got, ref))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_random_fans(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            fan = _gen.random_fan(rng)
            maxs = F.maximal_cones(fan)
            drop = rng.randrange(len(maxs))
            dropped = F.fan_from_maximal(
                [sc for i, sc in enumerate(maxs) if i != drop], fan.ambient_rank
            )
            for f in (fan, _gen.random_stellar(rng, fan), dropped):
                self._same(f)

    def test_cone_inside_another_is_not_maximal(self):
        quadrant = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        diagonal = F.stacky_cone([(1, 1)], [(1, 1)], 2)
        fan = F.make_fan([quadrant, diagonal], 2)
        self._same(fan)
        assert F.maximal_cones(fan) == [quadrant]

    def test_zero_cone_is_maximal_only_alone(self):
        zero = F.StackyCone(C.zero_cone(2), L.zero_lattice(2))
        ray = F.stacky_cone([(1, 0)], [(1, 0)], 2)
        for cones, want in (([zero], [zero]), ([zero, ray], [ray])):
            fan = F.make_fan(cones, 2)
            self._same(fan)
            assert F.maximal_cones(fan) == want

    def test_overlapping_cones(self):
        a = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        b = F.stacky_cone([(1, 1), (-1, 1)], [(1, 0), (0, 1)], 2)
        fan = F.fan_from_maximal([a, b], 2)
        self._same(fan)
        # The ray (1, 1) of b lies inside a without being a face of it.
        assert [sc.cone.rays for sc in F.maximal_cones(fan)] == [
            ((-1, 1), (1, 1)), ((0, 1), (1, 0))
        ]

    def test_rays_settled_by_the_index(self, monkeypatch):
        # An invalid fan: the octant, a 2-cone outside it, the ray (−1, 0, 0)
        # of only the 2-cone, rays inside the octant and the 2-cone that
        # are rays of neither, and a ray that no cone holds.  The index
        # settles the ray of the 2-cone with no containment test; the
        # others fall back to `contains_cone`.
        def sc(*rays):
            return F.stacky_cone(rays, rays, 3)

        octant = sc((1, 0, 0), (0, 1, 0), (0, 0, 1))
        wedge = sc((-1, 0, 0), (0, -1, 0))
        free = sc((0, 0, -1))
        fan = F.make_fan([octant, wedge, sc((-1, 0, 0)), sc((1, 1, 1)), sc((-1, -1, 0)), free], 3)
        self._same(fan)
        tested = []
        contains_cone = C.contains_cone

        def counted(big, small):
            tested.append(small.rays)
            return contains_cone(big, small)

        monkeypatch.setattr(C, "contains_cone", counted)
        assert F.maximal_cones(fan) == [free, wedge, octant]
        assert ((-1, 0, 0),) not in tested
        assert {((1, 1, 1),), ((-1, -1, 0),), ((0, 0, -1),)} <= set(tested)


_KINDS = ("random", "inside", "zero", "duplicate", "in_no_top")


@st.composite
def invalid_fans(draw):
    """Random cone lists given as they are (`make_fan`, no closure), with
    one planted fault: a cone inside another without being its face, the
    zero cone alone, a cone listed twice with two lattices, or (at rank 3)
    a cone of dimension 2 across two octants that lies in no single one;
    "random" plants nothing."""
    kind = draw(st.sampled_from(_KINDS))
    n = 3 if kind == "in_no_top" else draw(st.integers(1, 3))
    coord = st.integers(-2, 2)
    cones = []
    for _ in range(0 if kind == "zero" else draw(st.integers(1, 5))):
        row = st.lists(coord, min_size=n, max_size=n)
        rays = draw(st.lists(row, min_size=1, max_size=3))
        try:
            cone = C.from_rays(rays, n)
        except C.PointednessError:
            continue
        cones.append(F.StackyCone(cone, F.span_lattice(cone)))
    if kind == "zero":
        cones = [F.StackyCone(C.zero_cone(n), L.zero_lattice(n))] * draw(st.integers(1, 2))
    elif kind == "inside":
        big = C.from_rays([tuple(int(i == j) for j in range(n)) for i in range(n)], n)
        small = C.from_rays([(1,) * n], n)
        cones += [F.StackyCone(c, F.span_lattice(c)) for c in (big, small)]
    elif kind == "duplicate" and cones:
        sc = draw(st.sampled_from(cones))
        doubled = L.canonicalize([[2 * (i == j) for j in range(n)] for i in range(n)], n)
        cones.append(F.StackyCone(sc.cone, L.intersect(sc.lattice, doubled)))
    elif kind == "in_no_top":
        cones += list(F.fan_from_maximal(_orthants(3)[:4], 3).cones)
        wedge = C.from_rays([(1, 1, 0), (1, -1, 0)], 3)
        cones.append(F.StackyCone(wedge, F.span_lattice(wedge)))
    return kind, F.make_fan(cones, n)


def test_maximal_cones_matches_reference_on_invalid_fans():
    kinds = set()

    @settings(max_examples=300, derandomize=True, deadline=5000)
    @given(invalid_fans())
    def check(case):
        kind, fan = case
        got, ref = F.maximal_cones(fan), ref_maximal_cones(fan)
        assert len(got) == len(ref)
        assert all(a is b for a, b in zip(got, ref))
        kinds.add(kind)

    check()
    assert kinds == set(_KINDS)


def _orthants(n):
    """The 2^n coordinate orthants of R^n as StackyCones over Z^n."""
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [
        F.StackyCone(
            C.from_rays([[s * x for x in e] for s, e in zip(signs, axes)], n),
            L.full_lattice(n),
        )
        for signs in itertools.product((1, -1), repeat=n)
    ]


class TestCompleteness:
    def test_complete_fixtures(self):
        for name in ("trivial.json", "p2.json", "hirzebruch.json", "delta_fig.json"):
            assert F.is_complete(load_fan(name))

    def test_incomplete(self):
        assert not F.is_complete(load_fan("quadrant.json"))

    def test_drop_cone_breaks_completeness(self):
        fan = load_fan("trivial.json")
        maxs = F.maximal_cones(fan)
        partial = F.fan_from_maximal(maxs[:-1], 2)
        assert not F.is_complete(partial)

    def test_ridge_paired_but_disconnected(self):
        # Two complete fans with no common ray: every ridge bounds exactly
        # two tops, but no ridge joins the two fans' tops, so ridge pairing
        # says False.  The support is all of R², and the fan is invalid.
        axes = F.maximal_cones(load_fan("trivial.json"))
        diagonals = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        tilted = [
            F.StackyCone(C.from_rays([a, b], 2), L.full_lattice(2))
            for a, b in zip(diagonals, diagonals[1:] + diagonals[:1])
        ]
        fan = F.fan_from_maximal(axes + tilted, 2)
        assert F.validate(fan)
        assert not ref_is_complete_by_ridges(fan)
        assert F.is_complete(fan)

    def test_three_cones_over_a_quadrant_are_incomplete(self):
        # Every ray bounds two of the three cones and the cones connect,
        # so ridge pairing says True; the support is the quadrant.
        square = [(1, 0), (0, 1)]
        fan = F.fan_from_maximal([
            F.stacky_cone(rays, square, 2)
            for rays in (square, [(1, 1), (0, 1)], [(1, 0), (1, 1)])
        ], 2)
        assert len(F.validate(fan)) == 3
        assert ref_is_complete_by_ridges(fan)
        assert F.supports_equal(fan, load_fan("quadrant.json"))
        assert not F.is_complete(fan)

    def test_octants_and_a_cone_in_no_single_octant_are_complete(self):
        # The cone on (1, 1, 0) and (1, −1, 0) is a maximal cone of
        # dimension 2 that lies in no single octant, so ridge pairing says
        # False; the support is R³.
        octants = F.fan_from_maximal(_orthants(3), 3)
        wedge = F.stacky_cone([(1, 1, 0), (1, -1, 0)], [(1, 1, 0), (1, -1, 0)], 3)
        fan = F.make_fan(list(octants.cones) + [wedge], 3)
        assert F.validate(fan)
        assert not ref_is_complete_by_ridges(fan)
        assert F.supports_equal(fan, octants)
        assert F.is_complete(fan)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_ridge_pairing_on_valid_fans(self, n):
        # Subsets of the orthants, stellar subdivisions of them, and at
        # rank 2 random complete fans with extra rays; each valid.
        rng = random.Random(n)
        orthants = _orthants(n)
        answers = set()
        for k in range(12):
            if k == 0:
                chosen = orthants
            else:
                chosen = rng.sample(orthants, rng.randint(1, len(orthants)))
            fan = F.fan_from_maximal(chosen, n)
            fans = [fan, _gen.random_stellar(rng, fan)]
            if n == 2:
                fans.append(_gen.random_complete_fan2(rng))
            for f in fans:
                assert F.validate(f) == []
                want = ref_is_complete_by_ridges(f)
                assert F.is_complete(f) == want
                answers.add(want)
        assert answers == {True, False}

    def test_rank1(self):
        pos = F.stacky_cone([(1,)], [(1,)], 1)
        neg = F.stacky_cone([(-1,)], [(1,)], 1)
        assert F.is_complete(F.fan_from_maximal([pos, neg], 1))
        assert not F.is_complete(F.fan_from_maximal([pos], 1))

    def test_rank0(self):
        zero = F.StackyCone(C.zero_cone(0), L.zero_lattice(0))
        assert F.is_complete(F.make_fan([zero], 0))

    def test_maximal_cone_below_top_dimension(self):
        # The ray (−1, −1) lies in no quadrant, so it is a maximal cone of
        # dimension 1 beside a top of dimension 2.
        quadrant = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        ray = F.stacky_cone([(-1, -1)], [(-1, -1)], 2)
        fan = F.fan_from_maximal([quadrant, ray], 2)
        assert [sc.dim for sc in F.maximal_cones(fan)] == [1, 2]
        assert not F.is_complete(fan)

    def test_support_member(self):
        fan = load_fan("quadrant.json")
        assert _gen.support_member((3, 4), fan)
        assert not _gen.support_member((-1, 0), fan)


class TestSubdivision:
    def test_split_quadrant(self):
        fine = load_fan("split_quadrant.json")
        coarse = load_fan("quadrant.json")
        assert F.is_subdivision(fine, coarse)
        assert not F.is_subdivision(coarse, fine)

    def test_support_mismatch(self):
        assert not F.is_subdivision(load_fan("quadrant.json"), load_fan("trivial.json"))

    def test_non_induced_lattice_is_not_subdivision(self):
        coarse = F.fan_from_maximal(
            [F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)], 2
        )
        a = F.stacky_cone([(1, 0), (1, 1)], [(1, 0), (2, 2)], 2)
        b = F.stacky_cone([(1, 1), (0, 1)], [(2, 2), (0, 1)], 2)
        fine = F.fan_from_maximal([a, b], 2)
        assert F.validate(fine) == []
        assert not F.is_subdivision(fine, coarse)

    def test_stellar_is_subdivision(self):
        rng = random.Random(3)
        for _ in range(10):
            fan = _gen.random_fan(rng)
            sub = _gen.random_stellar(rng, fan)
            assert F.validate(sub) == []
            assert F.is_subdivision(sub, fan)

    def test_common_refinement_subdivides_both(self):
        p2 = load_fan("p2.json")
        trivial = load_fan("trivial.json")
        cr = F.common_refinement(p2, trivial)
        assert F.validate(cr) == []
        assert F.is_subdivision(cr, p2)
        assert F.is_subdivision(cr, trivial)

    def test_common_refinement_support_mismatch(self):
        with pytest.raises(F.SupportMismatchError):
            F.common_refinement(load_fan("quadrant.json"), load_fan("trivial.json"))


def _random_cone_and_lattice(rng):
    """A pointed cone of rank 1 to 4 (the zero cone, a full one, or one
    with a lower-dimensional span) and a lattice of any rank."""
    def vec(k):
        return [rng.randint(-3, 3) for _ in range(k)]

    n = rng.randint(1, 4)
    span = [vec(n) for _ in range(rng.randint(0, n))]
    w = vec(n)
    rays = []
    for _ in range(rng.randint(1, 5)):
        v = [dot(vec(len(span)), col) for col in zip(*span)] if span else []
        if v and dot(w, v) != 0:
            rays.append(v if dot(w, v) > 0 else [-x for x in v])
    lattice = L.canonicalize([vec(n) for _ in range(rng.randint(0, n + 1))], n)
    return C.from_rays(rays, n), lattice


class TestRestrict:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1).map(random.Random))
    def test_matches_restrict_to_span(self, rng):
        """`_restrict` takes the span lattice from the cone; the reference
        saturates the span basis again."""
        cone, lattice = _random_cone_and_lattice(rng)
        assert F._restrict(lattice, cone) == ref_restrict_to_span(
            lattice, [list(b) for b in cone.span_basis]
        )

    def test_matches_intersect_with_span(self):
        """On full-dimensional cells, on lower-dimensional ones with root
        lattices, lattices of the cell's rank inside its span and lattices
        of the cell's rank in another span, `_restrict` equals the
        intersection with the span lattice, and returns the lattice itself
        exactly when the lattice lies in the span."""
        rng = random.Random(16)
        seen = {"full": 0, "inside": 0, "outside": 0}
        for _ in range(300):
            cell, other = _random_cone_and_lattice(rng)
            n, d = cell.ambient_rank, cell.dim
            span = F.span_lattice(cell)
            coeffs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            combos = [[dot(c, col) for col in zip(*span.basis)] for c in coeffs]
            scale = rng.randint(2, 5)
            tilted = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
            lattices = [
                other,
                L.canonicalize([[scale * x for x in b] for b in span.basis], n),
                L.canonicalize(combos, n),
                L.canonicalize(tilted, n),
            ]
            for lattice in lattices:
                got = F._restrict(lattice, cell)
                assert got == L.intersect(lattice, span)
                inside = L.contains(span, lattice)
                if d == n:
                    seen["full"] += 1
                elif lattice.rank == d:
                    seen["inside" if inside else "outside"] += 1
                    assert (got == lattice) == inside
        assert min(seen.values()) >= 50
        # Lattices that hold the span basis but leave the span: the full
        # lattice, and a parent's lattice (its span lattice or a sublattice
        # of its rank in its span) on each of the parent's faces.
        held = 0
        for _ in range(100):
            parent, _ = _random_cone_and_lattice(rng)
            n, d = parent.ambient_rank, parent.dim
            span = F.span_lattice(parent)
            coeffs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            combos = [[dot(c, col) for col in zip(*span.basis)] for c in coeffs]
            lattices = [L.full_lattice(n), span, L.canonicalize(combos, n)]
            for cell in C.faces(parent):
                cell_span = F.span_lattice(cell)
                for lattice in lattices:
                    got = F._restrict(lattice, cell)
                    assert got == L.intersect(lattice, cell_span)
                    if lattice.rank == cell.dim:
                        assert (got == lattice) == L.contains(cell_span, lattice)
                    elif cell.dim < n and L.contains(lattice, cell_span):
                        held += 1
        assert held >= 50


class TestRootConstruction:
    def test_global_root(self):
        fan = load_fan("trivial.json")
        root = _gen.global_root(fan, 5)
        assert F.validate(root) == []
        assert F.is_root_construction(root, fan)
        assert not F.is_root_construction(fan, root)

    def test_different_cones_not_root(self):
        assert not F.is_root_construction(
            load_fan("split_quadrant.json"), load_fan("quadrant.json")
        )


class TestMorphisms:
    def test_subdivision_is_representable_and_proper(self):
        fine = load_fan("split_quadrant.json")
        coarse = load_fan("quadrant.json")
        m = F.FanMorphismData(fine, coarse)
        assert m.is_valid()
        assert F.is_representable(m)
        assert F.is_proper(m)

    def test_root_is_proper_not_representable(self):
        coarse = load_fan("trivial.json")
        fine = _gen.global_root(coarse, 5)
        m = F.FanMorphismData(fine, coarse)
        assert m.is_valid()
        assert F.is_proper(m)
        assert not F.is_representable(m)

    def test_partial_source_not_proper(self):
        coarse = load_fan("quadrant.json")
        fine = load_fan("split_quadrant.json")
        kept = [sc for sc in F.maximal_cones(fine)][:-1]
        partial = F.fan_from_maximal(kept, 2)
        m = F.FanMorphismData(partial, coarse)
        assert F.is_representable(m)
        assert not F.is_proper(m)

    def test_source_of_lower_dimension_not_proper(self):
        # The ray through (1, 1) lies in the quadrant and holds its
        # interior point, but covers none of it.
        quadrant, ray = _gen.quadrant_and_diagonal_ray()
        m = F.FanMorphismData(ray, quadrant)
        assert not F.is_proper(m)

    def test_smallest_containing(self):
        fan = load_fan("quadrant.json")
        inner = C.from_rays([(1, 1), (1, 2)], 2)
        sc = F.smallest_containing(fan, inner)
        assert sc is not None and sc.dim == 2
        on_ray = C.ray_cone((1, 0), 2)
        assert F.smallest_containing(fan, on_ray).dim == 1
        assert F.smallest_containing(fan, C.ray_cone((-1, 0), 2)) is None


class TestStellar:
    def test_explicit(self):
        fan = load_fan("quadrant.json")
        sub = F.stellar_subdivision(fan, (1, 1))
        maxs = F.maximal_cones(sub)
        rays = sorted(sc.cone.rays for sc in maxs)
        assert rays == [((0, 1), (1, 1)), ((1, 0), (1, 1))]

    def test_preserves_lattice_classes(self):
        fan = load_fan("delta_fig.json")
        sub = F.stellar_subdivision(fan, (1, 1))
        assert F.validate(sub) == []
        assert F.is_subdivision(sub, fan)


class TestGenerators:
    def test_random_fans_valid(self):
        rng = random.Random(1)
        for _ in range(25):
            fan = _gen.random_fan(rng)
            assert F.validate(fan) == []

    def test_random_complete2_complete(self):
        rng = random.Random(2)
        for _ in range(10):
            fan = _gen.random_complete_fan2(rng)
            assert F.is_complete(fan)
