"""Minimal fans, sublattice colorings, and birational equivalence.

The complete invariant of a stacky fan's birational class is the point
set S = union of (cone ∩ lattice) over its cones.  S is determined by
the maximal cones alone (face lattices are induced), so everything here
works with lists of maximal stacky cones ("pieces").

MinimalFan coarsens a fan by greedily merging two pieces at a time across
a common wall where the sublattices agree and the union stays a pointed
convex cone.  The pieces left depend on the input, not only on S, so
MinimalFan equality is decided semantically (equal S-sets), not by
comparing piece tuples.
"""

from dataclasses import dataclass

from . import cones as C
from . import fans as F
from . import lattice as L
from .fans import CompletenessRequiredError


class ColoringInvalidError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class MinimalFan:
    ambient_rank: int
    pieces: tuple  # tuple of StackyCone, maximal cells of the class

    def __eq__(self, other):
        if not isinstance(other, MinimalFan):
            return NotImplemented
        if self.ambient_rank != other.ambient_rank:
            return False
        return s_sets_equal(self, other)

    def __hash__(self):
        return hash(("MinimalFan", self.ambient_rank))

    def __repr__(self):
        return f"MinimalFan(rank {self.ambient_rank}, {len(self.pieces)} pieces)"


@dataclass(frozen=True)
class SublatticeColoring:
    ambient_rank: int
    colors: tuple  # tuple of (Sublattice, tuple of Cone), sorted by lattice basis

    def __repr__(self):
        return f"SublatticeColoring(rank {self.ambient_rank}, {len(self.colors)} colors)"


def _pieces_of(obj):
    if isinstance(obj, MinimalFan):
        return list(obj.pieces)
    return F.maximal_cones(obj)


def _merge_pieces(pieces):
    """Greedy wall-merging; deterministic because processed in canonical order."""
    items = sorted(pieces, key=lambda sc: (sc.dim, sc.cone.rays))
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                merged = F.merge_across_wall(items[i], items[j])
                if merged is not None:
                    items = [it for k, it in enumerate(items) if k not in (i, j)]
                    items.append(merged)
                    items.sort(key=lambda sc: (sc.dim, sc.cone.rays))
                    changed = True
                    break
            if changed:
                break
    return tuple(items)


def minimal_fan(fan):
    """Coarsening of a stacky fan by greedy pairwise wall merging.

    Pieces are merged two at a time, in a fixed order, until no pair
    merges.  The result has the input's S-set, but its piece list is not
    a canonical form: a stellar subdivision of a simplicial cone of rank
    >= 3 stays subdivided, since no two of its pieces have a convex
    union.  Accepts a StackyFan or a MinimalFan (on which it is
    idempotent).
    """
    pieces = _pieces_of(fan)
    return MinimalFan(fan.ambient_rank, _merge_pieces(pieces))


def _overlay_mismatch(pieces1, pieces2):
    """First overlay cell where the restricted lattices differ, or None.

    Returns (cell, lattice_from_1, lattice_from_2).
    """
    for p1 in pieces1:
        for p2 in pieces2:
            cell = C.intersect_cones(p1.cone, p2.cone)
            if cell.dim == 0:
                continue
            r1 = F._restrict(p1.lattice, cell)
            r2 = F._restrict(p2.lattice, cell)
            if r1 != r2:
                return cell, r1, r2
    return None


def s_sets_equal(a, b):
    """Do two fans (or minimal fans) have the same point set S?"""
    if a.ambient_rank != b.ambient_rank:
        raise L.DimensionError("ambient ranks differ")
    p1, p2 = _pieces_of(a), _pieces_of(b)
    if not C.same_union([p.cone for p in p1], [p.cone for p in p2]):
        return False
    return _overlay_mismatch(p1, p2) is None


def birationally_equivalent(f1, f2):
    return s_sets_equal(f1, f2)


def s_witness(a, b):
    """A lattice point in exactly one of the two S-sets, or None if equal.

    The witness is exact: it lies in the support of both overlays (or in
    one support only, when the supports differ).
    """
    if a.ambient_rank != b.ambient_rank:
        raise L.DimensionError("ambient ranks differ")
    p1, p2 = _pieces_of(a), _pieces_of(b)
    c1 = [p.cone for p in p1]
    c2 = [p.cone for p in p2]
    for target in c1:
        pt = C.uncovered_point(target, c2)
        if pt is not None:
            return _support_witness(pt, p1)
    for target in c2:
        pt = C.uncovered_point(target, c1)
        if pt is not None:
            return _support_witness(pt, p2)
    mismatch = _overlay_mismatch(p1, p2)
    if mismatch is None:
        return None
    cell, r1, r2 = mismatch
    v = _lattice_difference_vector(r1, r2)
    # Push v into the cell's relative interior along a direction that
    # stays in both lattices: e * a is in r1 ∩ r2 for e = [span : r1∩r2].
    interior = C.interior_point(cell)
    both = L.intersect(r1, r2)
    span = F.span_lattice(cell)
    e = L.index_in(both, span)
    step = tuple(e * x for x in interior)
    w = tuple(v)
    while C.contains_point(cell, w) != C.RELATIVE_INTERIOR:
        w = tuple(x + y for x, y in zip(w, step))
    return w


def _lattice_difference_vector(r1, r2):
    """A vector in the symmetric difference of two distinct sublattices."""
    for b in r1.basis:
        if not L.member(b, r2):
            return b
    for b in r2.basis:
        if not L.member(b, r1):
            return b
    raise AssertionError("lattices were expected to differ")


def _support_witness(pt, pieces):
    """A point of S near a support point pt (scale pt into the piece lattice)."""
    for p in pieces:
        if C.member(p.cone, pt):
            span = F.span_lattice(p.cone)
            e = L.index_in(p.lattice, span)
            return tuple(e * x for x in pt)
    raise AssertionError("support point not in any piece")


def to_coloring(fan):
    """Group the maximal cones of a complete fan by their sublattice."""
    if not F.is_complete(fan):
        raise CompletenessRequiredError(
            "sublattice colorings are defined for complete fans"
        )
    return coloring_of(F.maximal_cones(fan), fan.ambient_rank)


def coloring_of(pieces, ambient_rank):
    """Group stacky pieces by sublattice, colors and cones in canonical order."""
    groups = {}
    for sc in pieces:
        groups.setdefault(sc.lattice, []).append(sc.cone)
    colors = tuple(
        (lat, tuple(sorted(cs, key=lambda c: c.rays)))
        for lat, cs in sorted(groups.items(), key=lambda kv: kv[0].basis)
    )
    return SublatticeColoring(ambient_rank, colors)


def validate_coloring(c):
    """Violations: region interiors must be disjoint across distinct colors."""
    out = []
    for i in range(len(c.colors)):
        for j in range(i + 1, len(c.colors)):
            for a in c.colors[i][1]:
                for b in c.colors[j][1]:
                    inter = C.intersect_cones(a, b)
                    if inter.dim == a.dim:
                        out.append(
                            f"regions of two colors overlap on cone {inter.rays}"
                        )
    return out


def from_coloring(c):
    """MinimalFan with S = union over colors of (region ∩ lattice)."""
    bad = validate_coloring(c)
    if bad:
        raise ColoringInvalidError("; ".join(bad))
    pieces = []
    for lat, cs in c.colors:
        for cone in cs:
            pieces.append(F.StackyCone(cone, F._restrict(lat, cone)))
    return MinimalFan(c.ambient_rank, _merge_pieces(pieces))


def coloring_is_complete(m):
    """Does the union of the pieces cover all of R^n?"""
    n = m.ambient_rank
    if n == 0:
        return True
    tops = [p.cone for p in m.pieces if p.dim == n]
    return all(C.cone_covered_by(o, tops) for o in C.arrangement_cells([], n))
