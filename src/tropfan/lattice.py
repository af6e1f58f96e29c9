"""Sublattices of Z^n in canonical Hermite normal form.

A Sublattice is the subgroup of Z^n generated by its basis rows.  The
basis is kept in row-style HNF (positive pivots, reduced entries above
pivots), so equality of subgroups is equality of tuples.  Rank-deficient
sublattices are ordinary values; the zero lattice has an empty basis.
Each lattice keeps the pivot columns of its basis, worked out on first
use, for every solve for coordinates in that basis.
"""

from dataclasses import dataclass
from functools import cached_property

from . import _linalg
from ._linalg import express_at_pivots, hnf, integer_kernel, pivot_columns


class DimensionError(ValueError):
    pass


class ContainmentError(ValueError):
    pass


INFINITE = "infinite"


@dataclass(frozen=True)
class Sublattice:
    ambient_rank: int
    basis: tuple  # tuple of int tuples, in HNF

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient_rank:
                raise DimensionError(
                    f"basis vector of length {len(row)} in ambient rank {self.ambient_rank}"
                )

    @property
    def rank(self):
        return len(self.basis)

    @cached_property
    def pivots(self):
        """The pivot column of each basis row, worked out on first use;
        equality and hashing stay on (ambient_rank, basis)."""
        return tuple(pivot_columns(self.basis, self.ambient_rank))

    def __repr__(self):
        return f"Sublattice(rank {self.rank} in Z^{self.ambient_rank})"


def canonicalize(vectors, ambient_rank):
    """Canonical Sublattice generated by the given integer vectors."""
    for v in vectors:
        if len(v) != ambient_rank:
            raise DimensionError(f"vector {v} does not have length {ambient_rank}")
    return Sublattice(ambient_rank, tuple(hnf([list(v) for v in vectors], ambient_rank)))


def full_lattice(ambient_rank):
    """Z^n, whose HNF basis is the identity."""
    return Sublattice(
        ambient_rank,
        tuple(tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)),
    )


def zero_lattice(ambient_rank):
    return Sublattice(ambient_rank, ())


def member(v, lattice):
    """Exact membership of an integer vector in a sublattice."""
    if len(v) != lattice.ambient_rank:
        raise DimensionError(f"vector {v} vs ambient rank {lattice.ambient_rank}")
    return express_at_pivots(lattice.basis, lattice.pivots, v) is not None


def line_solve(u, lattice):
    """The t with (u, t) in the lattice, for a prefix u of n − 1 entries:
    None when there is none, else (s, d) such that they are s + d·Z,
    which is t = s alone when d = 0.

    This is `member` with t left unknown.  Only the last basis row can
    have its pivot in the last column; its entry there is d.  The other
    rows are solved from u by back-substitution, as `express_at_pivots`
    does, and their last entries add up to s.
    """
    n = lattice.ambient_rank
    v = [*u, 0]
    d = 0
    for row, p in zip(lattice.basis, lattice.pivots):
        if p == n - 1:
            d = row[p]
            break
        q, r = divmod(v[p], row[p])
        if r:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v[:-1]):
        return None
    return -v[-1], d


def contains(sup, sub):
    """True iff every basis vector of `sub` lies in `sup`."""
    return all(member(b, sup) for b in sub.basis)


def index_in(sub, sup):
    """Index [sup : sub], or the string "infinite" when ranks differ.

    Raises ContainmentError unless sub is contained in sup.
    """
    if sub.ambient_rank != sup.ambient_rank:
        raise DimensionError("ambient ranks differ")
    if not contains(sup, sub):
        raise ContainmentError("first lattice is not contained in the second")
    if sub.rank < sup.rank:
        return INFINITE
    # Express sub's basis in coordinates with respect to sup's basis; the
    # index is |det| of that square matrix, the product of its HNF pivots.
    coords = [express_at_pivots(sup.basis, sup.pivots, b) for b in sub.basis]
    index = 1
    for i, row in enumerate(hnf(coords, sup.rank)):
        index *= row[i]
    return index


def intersect(l1, l2):
    """Canonical basis of the intersection of two sublattices."""
    if l1.ambient_rank != l2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    n = l1.ambient_rank
    if not l1.basis or not l2.basis:
        return zero_lattice(n)
    stacked = [list(b) for b in l1.basis] + [[-x for x in b] for b in l2.basis]
    kernel = _linalg.left_kernel(stacked, n)
    r1 = len(l1.basis)
    gens = []
    for k in kernel:
        v = [0] * n
        for c, b in zip(k[:r1], l1.basis):
            if c:
                v = [a + c * x for a, x in zip(v, b)]
        gens.append(v)
    return canonicalize(gens, n)


def saturate(lattice):
    """Span_Q(L) intersected with Z^n: the saturation of L.

    A lattice of full rank saturates to Z^n.  A basis in HNF whose pivots
    are all 1 has a maximal minor equal to 1, so it is saturated and is
    returned as it is (so is the zero lattice, whose basis is empty);
    otherwise the saturation is the kernel of the kernel.
    """
    n = lattice.ambient_rank
    if lattice.rank == n:
        return full_lattice(n)
    if all(next(x for x in row if x) == 1 for row in lattice.basis):
        return lattice
    perp = integer_kernel([list(b) for b in lattice.basis], n)
    sat = integer_kernel([list(p) for p in perp], n)
    return canonicalize([list(v) for v in sat], n)
