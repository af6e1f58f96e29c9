"""Minimal fans, sublattice colorings, and birational equivalence.

The complete invariant of a stacky fan's birational class is the point
set S = union of (cone ∩ lattice) over its cones.  S is determined by
the maximal cones alone (face lattices are induced), so everything here
works with lists of maximal stacky cones ("pieces").

MinimalFan coarsens a fan by greedily merging two pieces at a time across
a common wall where the sublattices agree and the union stays a pointed
convex cone.  A merge reads the union's facets and rays from the two
pieces (`fans.merge_across_wall`) and makes no `from_rays` call.  The
piece list is kept sorted by insertion (`_merge_pieces`).  In a seed-1
benchmark coarsen round (2 cores, Python 3.11), 1,631 pairs are tried
and 334 merge.  The merges take about a third of the round and the
refused pairs about a third: 921 stop at the first sign scan, and the
325 whose union holds a line cost more than those.  `fans.maximal_cones`
takes about a sixth.  The pieces left depend on the input, not only on
S, so MinimalFan equality is decided semantically (equal S-sets), not by
comparing piece tuples.  Equal S-sets means equal supports
(`cones.union_difference`, whose point also gives the support witness)
and equal lattices on the overlay, where only pairs of pieces with
different lattices can differ.  One generator, `_lattice_mismatches`,
finds the pairs of pieces whose lattices differ where they meet, for
the overlay and for `validate_coloring` alike.  A coloring becomes
pieces only in `_color_pieces`, so the decoder, `from_coloring` and
`validate_coloring` (which checks each piece's lattice rank) all see
the same pieces.  Two regions of distinct colors conflict when their
relative interiors meet and their lattices differ on their
intersection; the rule is symmetric, so regrouping the pieces into
colors (`coloring_of`) keeps the verdict.
"""

from bisect import bisect_right
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
    if isinstance(obj, F.StackyFan):
        return F.maximal_cones(obj)
    raise TypeError(f"expected a StackyFan or MinimalFan, got {type(obj).__name__}")


def _merge_pieces(pieces):
    """Greedy wall merging, deterministic because it runs in the canonical
    (dim, rays) order: the first pair (i < j) in that order that merges is
    replaced by its union, and the scan starts again from the first pair.

    The keys are kept in a parallel list, so a merge deletes the two
    pieces and inserts the union with `bisect_right`, after any piece of
    an equal key, where a stable re-sort of the list would put it.
    """
    items = list(F._sort_stacky(pieces))
    keys = [(sc.dim, sc.cone.rays) for sc in items]
    i = 0
    while i < len(items):
        for j in range(i + 1, len(items)):
            merged = F.merge_across_wall(items[i], items[j])
            if merged is not None:
                del items[j], items[i], keys[j], keys[i]
                key = (merged.dim, merged.cone.rays)
                k = bisect_right(keys, key)
                items.insert(k, merged)
                keys.insert(k, key)
                i = 0
                break
        else:
            i += 1
    return tuple(items)


def minimal_fan(fan):
    """Coarsening of a stacky fan by greedy pairwise wall merging.

    Pieces are merged two at a time, in a fixed order, until no pair
    merges.  The result has the input's S-set, but its piece list is not
    a canonical form.  At rank 2 the four quadrants of Z^2 stay four
    pieces, since two adjacent quadrants make a half-plane, which is not
    pointed, yet the same fan subdivided at (1, 1) merges to three.  A
    stellar subdivision of a simplicial cone of rank >= 3 stays
    subdivided, since no two of its pieces have a convex union.  Accepts
    a StackyFan or a MinimalFan (on which it is idempotent).
    """
    pieces = _pieces_of(fan)
    return MinimalFan(fan.ambient_rank, _merge_pieces(pieces))


def _lattice_mismatches(pieces1, pieces2):
    """(p1, p2, cell, r1, r2) for each pair of a piece p1 of pieces1 and a
    piece p2 of pieces2, in that order, that meet in a cell of positive
    dimension on which their lattices restricted to it, r1 and r2,
    differ.  A pair of pieces with equal lattices is skipped, with no
    cell built: one lattice restricts to one lattice on any cell, so such
    a pair never differs."""
    for p1 in pieces1:
        for p2 in pieces2:
            if p1.lattice == p2.lattice:
                continue
            cell = C.intersect_cones(p1.cone, p2.cone)
            if cell.dim == 0:
                continue
            r1 = F._restrict(p1.lattice, cell)
            r2 = F._restrict(p2.lattice, cell)
            if r1 != r2:
                yield p1, p2, cell, r1, r2


def _overlay_mismatch(pieces1, pieces2):
    """(cell, lattice_from_1, lattice_from_2) of the first pair of
    `_lattice_mismatches`, or None when there is none."""
    return next((m[2:] for m in _lattice_mismatches(pieces1, pieces2)), None)


def _s_difference(a, b):
    """(pieces, point, mismatch) for two fans (or minimal fans): the pieces
    of a and then of b, a point in one support only (None when the
    supports agree) and, only when they agree, the first overlay cell
    where the lattices differ (`_overlay_mismatch`)."""
    if a.ambient_rank != b.ambient_rank:
        raise L.DimensionError("ambient ranks differ")
    p1, p2 = _pieces_of(a), _pieces_of(b)
    pt = C.union_difference([p.cone for p in p1], [p.cone for p in p2])
    return p1 + p2, pt, _overlay_mismatch(p1, p2) if pt is None else None


def s_sets_equal(a, b):
    """Do two fans (or minimal fans) have the same point set S?"""
    _, pt, mismatch = _s_difference(a, b)
    return pt is None and mismatch is None


def birationally_equivalent(f1, f2):
    return s_sets_equal(f1, f2)


def s_witness(a, b):
    """A lattice point in exactly one of the two S-sets, or None if equal.

    The witness is exact: it lies in the support of both overlays (or in
    one support only, when the supports differ).
    """
    pieces, pt, mismatch = _s_difference(a, b)
    if pt is not None:
        # pt lies in one support only, so the first piece holding it is
        # on that side.
        return _support_witness(pt, pieces)
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


def _color_pieces(colors):
    """Each region of a coloring as a piece, with its color's lattice
    restricted to the region's span."""
    return [F.StackyCone(cone, F._restrict(lat, cone)) for lat, cs in colors for cone in cs]


def validate_coloring(c):
    """Violations: each piece must be a valid stacky cone (its lattice of
    full rank in the region's span), and no two regions of distinct
    colors may conflict.  Two regions conflict when their relative
    interiors meet (the interior point of their intersection lies in the
    relative interior of both) and their lattices, restricted to the
    intersection, differ.  The rule is symmetric, so the verdict does not
    depend on the order of the colors; regions of one color never
    conflict.  The pairs whose lattices differ on their intersection come
    from `_lattice_mismatches` on the pieces of each pair of colors: a
    piece's lattice is its color's lattice restricted to the region, so
    it restricts to the color's lattice on the intersection."""
    pieces = [_color_pieces([color]) for color in c.colors]
    out = [v for ps in pieces for p in ps for v in F.validate_stacky_cone(p)]
    if out:
        return out
    for i, pieces_a in enumerate(pieces):
        for pieces_b in pieces[i + 1 :]:
            for a, b, inter, _, _ in _lattice_mismatches(pieces_a, pieces_b):
                pt = C.interior_point(inter)
                if all(C.contains_point(p.cone, pt) == C.RELATIVE_INTERIOR for p in (a, b)):
                    out.append(f"regions of two colors overlap on cone {inter.rays}")
    return out


def from_coloring(c):
    """MinimalFan with S = union over colors of (region ∩ lattice)."""
    bad = validate_coloring(c)
    if bad:
        raise ColoringInvalidError("; ".join(bad))
    return MinimalFan(c.ambient_rank, _merge_pieces(_color_pieces(c.colors)))


def coloring_is_complete(m):
    """Does the union of the pieces cover all of R^n?  The same walk as
    `fans.is_complete` (`cones.covers_space`)."""
    return C.covers_space([p.cone for p in m.pieces], m.ambient_rank)
