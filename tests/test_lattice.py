import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropfan.fans as F
import tropfan.lattice as L
from tropfan._linalg import integer_kernel

from _ref import ref_restrict_to_span

small_int = st.integers(min_value=-5, max_value=5)


def vec_strategy(n):
    return st.lists(small_int, min_size=n, max_size=n)


def mat_strategy(n, rows=3):
    return st.lists(vec_strategy(n), min_size=0, max_size=rows)


class TestCanonicalize:
    def test_full_lattice(self):
        lat = L.full_lattice(2)
        assert lat.basis == ((1, 0), (0, 1))
        assert lat.rank == 2

    def test_zero_lattice(self):
        lat = L.zero_lattice(3)
        assert lat.basis == ()
        assert lat.rank == 0

    def test_redundant_generators(self):
        lat = L.canonicalize([(2, 0), (3, 0)], 2)
        assert lat.basis == ((1, 0),)

    def test_hnf_shape(self):
        lat = L.canonicalize([(2, 1), (0, 3)], 2)
        # Row-style HNF: positive pivots, entries above reduced.
        assert lat.rank == 2
        assert L.index_in(lat, L.full_lattice(2)) == 6

    @given(mat_strategy(3))
    @settings(max_examples=100, deadline=None)
    def test_generators_are_members(self, rows):
        lat = L.canonicalize(rows, 3)
        for r in rows:
            assert L.member(r, lat)

    @given(mat_strategy(3))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, rows):
        lat = L.canonicalize(rows, 3)
        again = L.canonicalize([list(b) for b in lat.basis], 3)
        assert lat == again


class TestMembership:
    def test_member_basic(self):
        lat = L.canonicalize([(2, 0), (0, 1)], 2)
        assert L.member((4, 7), lat)
        assert not L.member((3, 0), lat)
        assert L.member((0, 0), lat)

    def test_member_lower_rank(self):
        lat = L.canonicalize([(1, 1)], 2)
        assert L.member((3, 3), lat)
        assert not L.member((1, 2), lat)
        assert L.member((-2, -2), lat)

    def test_contains(self):
        full = L.full_lattice(2)
        even = L.canonicalize([(2, 0), (0, 2)], 2)
        assert L.contains(full, even)
        assert not L.contains(even, full)

    def test_dimension_error(self):
        with pytest.raises(L.DimensionError):
            L.member((1, 2, 3), L.full_lattice(2))


class TestIndex:
    def test_finite_index(self):
        even = L.canonicalize([(2, 0), (0, 2)], 2)
        assert L.index_in(even, L.full_lattice(2)) == 4

    def test_index_one(self):
        assert L.index_in(L.full_lattice(3), L.full_lattice(3)) == 1

    def test_infinite_index(self):
        line = L.canonicalize([(1, 0)], 2)
        assert L.index_in(line, L.full_lattice(2)) == L.INFINITE

    def test_not_contained(self):
        a = L.canonicalize([(1, 0)], 2)
        b = L.canonicalize([(0, 1)], 2)
        with pytest.raises(L.ContainmentError):
            L.index_in(a, b)

    def test_index_multiplicative(self):
        full = L.full_lattice(2)
        mid = L.canonicalize([(2, 0), (0, 1)], 2)
        sub = L.canonicalize([(2, 0), (0, 3)], 2)
        assert L.index_in(sub, mid) * L.index_in(mid, full) == L.index_in(sub, full)


class TestIntersect:
    def test_known(self):
        a = L.canonicalize([(2, 0), (0, 1)], 2)
        b = L.canonicalize([(1, 0), (0, 3)], 2)
        inter = L.intersect(a, b)
        assert L.index_in(inter, L.full_lattice(2)) == 6

    def test_oracle_box_scan(self):
        # Membership in the intersection == membership in both, on a box.
        rng = random.Random(7)
        for _ in range(20):
            a = L.canonicalize(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)], 2
            )
            b = L.canonicalize(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)], 2
            )
            inter = L.intersect(a, b)
            for x in range(-6, 7):
                for y in range(-6, 7):
                    v = (x, y)
                    assert L.member(v, inter) == (L.member(v, a) and L.member(v, b))

    def test_lower_rank_intersection(self):
        a = L.canonicalize([(1, 0)], 2)
        b = L.canonicalize([(2, 0), (0, 1)], 2)
        inter = L.intersect(a, b)
        assert inter.basis == ((2, 0),)


class TestSaturate:
    def test_full_rank(self):
        lat = L.canonicalize([(2, 0), (0, 4)], 2)
        assert L.saturate(lat) == L.full_lattice(2)

    def test_ray(self):
        lat = L.canonicalize([(2, 4)], 2)
        assert L.saturate(lat).basis == ((1, 2),)

    def test_already_saturated(self):
        lat = L.canonicalize([(1, 2)], 2)
        assert L.saturate(lat) == lat

    def test_saturated_with_non_unit_pivot(self):
        lat = L.canonicalize([(2, 1)], 2)
        assert lat.basis == ((2, 1),)
        assert L.saturate(lat) == lat == ref_saturate(lat)

    def test_matches_reference(self):
        """Seeded lattices of rank 0 to n in Z^1 … Z^5: a basis with unit
        pivots comes back as it is, and every kind of lattice saturates as
        the two-kernel reference does."""
        rng = random.Random(19)
        seen = dict.fromkeys(("zero", "full", "unit", "saturated", "unsaturated"), 0)
        for _ in range(600):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
            lat = L.canonicalize(rows, n)
            got = L.saturate(lat)
            assert got == ref_saturate(lat)
            unit = all(next(x for x in row if x) == 1 for row in lat.basis)
            if not lat.basis:
                kind = "zero"
            elif lat.rank == n:
                kind = "full"
            elif unit:
                kind = "unit"
                assert got is lat
            else:
                kind = "saturated" if got == lat else "unsaturated"
            seen[kind] += 1
        assert min(seen.values()) >= 20, seen


def ref_saturate(lattice):
    """`saturate` before the unit-pivot fast path: always the kernel of the
    kernel."""
    n = lattice.ambient_rank
    if not lattice.basis:
        return L.zero_lattice(n)
    perp = integer_kernel([list(b) for b in lattice.basis], n)
    if not perp:
        return L.full_lattice(n)
    return L.canonicalize(integer_kernel([list(p) for p in perp], n), n)


class TestGroupClosure:
    def test_gcd(self):
        lat = L.canonicalize([(2, 0), (3, 0)], 2)
        assert lat.basis == ((1, 0),)


class TestRestrictToSpan:
    """`fans._restrict_to_span` on the saturated span of a spanning set,
    against the reference that intersects with that span."""

    @staticmethod
    def restrict(lattice, span_vectors):
        span = L.saturate(L.canonicalize(span_vectors, lattice.ambient_rank))
        got = F._restrict_to_span(lattice, span.basis)
        assert got == ref_restrict_to_span(lattice, span_vectors)
        return got

    def test_diagonal(self):
        full = L.full_lattice(2)
        lat = self.restrict(full, [[1, 1]])
        assert lat.basis == ((1, 1),)

    def test_index_two_on_line(self):
        even = L.canonicalize([(2, 0), (0, 2)], 2)
        lat = self.restrict(even, [[1, 1]])
        assert lat.basis == ((2, 2),)

    def test_box_oracle(self):
        rng = random.Random(11)
        for _ in range(20):
            lat = L.canonicalize(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)], 2
            )
            d = (rng.randint(-3, 3), rng.randint(-3, 3))
            if d == (0, 0):
                continue
            res = self.restrict(lat, [list(d)])
            for k in range(-6, 7):
                v = (k * d[0], k * d[1])
                assert L.member(v, res) == L.member(v, lat)
