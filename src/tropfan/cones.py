"""Exact pointed rational polyhedral cones.

A Cone keeps three descriptions in sync: primitive extreme rays, a
saturated basis of the lattice of its linear span (in HNF), and facet
normals as ambient integer functionals.  Membership is a sign test plus,
for a lower-dimensional cone, an integer HNF span test.  The facet list
is complete and irredundant, so ray–facet incidences decide the rest:
a half-space cut is one double-description step over the rays, an
intersection is a fold of such cuts, and faces and face tests are read
from the facet normals vanishing on each ray.  All cones are pointed: a
cone is pointed iff its dual is full-dimensional in the span, and
non-pointed input is rejected.
"""

from dataclasses import dataclass
from itertools import combinations

from . import lattice as lat
from ._linalg import (
    dot,
    express_in_hnf,
    integer_kernel,
    is_zero,
    primitive,
    rational_rank,
    solve_integer,
)
from .lattice import DimensionError

OUTSIDE = "outside"
BOUNDARY = "boundary"
RELATIVE_INTERIOR = "relative_interior"


class PointednessError(ValueError):
    pass


class DualNotPointedError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
    ambient_rank: int
    rays: tuple          # sorted primitive integer tuples (extreme rays)
    span_basis: tuple    # HNF basis of Z^n ∩ Span(cone)
    facet_normals: tuple # ambient integer functionals; x ∈ cone ⇔ x ∈ span, all ⟨h,x⟩ ≥ 0

    @property
    def dim(self):
        return len(self.span_basis)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.rays == other.rays
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.rays))

    def __repr__(self):
        return f"Cone(rays={list(self.rays)})"


def _extreme_rays_of_inequalities(ineqs, k):
    """Extreme rays of the pointed cone {x in R^k : A x >= 0}.

    This is `from_rays`' dual step: with the rays' span coordinates as
    rows, it yields the facet normals.  Every extreme ray of a pointed
    cone has an active constraint set of rank k-1, so enumerating
    (k-1)-subsets of rows finds all of them.
    """
    if k == 0:
        return []
    rays = []
    seen = set()
    if k == 1:
        candidates = [(1,), (-1,)]
        for v in candidates:
            if all(dot(row, v) >= 0 for row in ineqs):
                if v not in seen:
                    seen.add(v)
                    rays.append(v)
        # A pointed 1-d cone keeps at most one direction; both directions
        # surviving means the constraints carve out a line (caller checks).
        return rays
    for subset in combinations(range(len(ineqs)), k - 1):
        rows = [ineqs[i] for i in subset]
        kernel = integer_kernel(rows, k)
        if len(kernel) != 1:
            continue
        v = primitive(kernel[0])
        for cand in (v, tuple(-x for x in v)):
            if all(dot(row, cand) >= 0 for row in ineqs):
                if cand not in seen:
                    seen.add(cand)
                    rays.append(cand)
                break
    return rays


def from_rays(rays, ambient_rank):
    """Canonical pointed cone generated by the given integer vectors."""
    for r in rays:
        if len(r) != ambient_rank:
            raise DimensionError(f"ray {r} does not have length {ambient_rank}")
    prims = []
    for r in rays:
        p = primitive(r)
        if not is_zero(p) and p not in prims:
            prims.append(p)
    if not prims:
        return Cone(ambient_rank, (), (), ())
    span = lat.saturate(lat.canonicalize(prims, ambient_rank))
    d = span.rank
    coords = [express_in_hnf(span.basis, ambient_rank, p) for p in prims]
    # Facet normals in span coordinates: extreme rays of the dual cone,
    # which is pointed because the coordinates span R^d.  The cone is
    # pointed iff its dual is full-dimensional.
    normals_d = _extreme_rays_of_inequalities(coords, d)
    if rational_rank(normals_d) != d:
        raise PointednessError(f"cone generated by {rays} contains a line")
    # Extreme-ray filter: active normal set of rank d-1.
    extreme = []
    for p, c in zip(prims, coords):
        active = [h for h in normals_d if dot(h, c) == 0]
        if rational_rank(active) == d - 1:
            extreme.append(p)
    # Lift normals to ambient integer functionals (the span basis is
    # saturated, so an integer lift always exists).
    lifted = [
        primitive(y) for y in _lift_functionals(span.basis, normals_d, ambient_rank)
    ]
    return Cone(
        ambient_rank,
        tuple(sorted(extreme)),
        tuple(span.basis),
        tuple(sorted(lifted)),
    )


def _lift_functionals(span_basis, hs, ambient_rank):
    """For each h in hs, an integer functional y on Z^n with <b_i, y> = h_i
    for the span basis; one HNF of the basis serves every h."""
    columns = [[b[j] for b in span_basis] for j in range(ambient_rank)]
    sols = solve_integer(columns, len(span_basis), hs)
    if None in sols:
        raise AssertionError("saturated span basis must admit an integer lift")
    return sols


def zero_cone(ambient_rank):
    return Cone(ambient_rank, (), (), ())


def ray_cone(v, ambient_rank):
    return from_rays([v], ambient_rank)


def contains_point(cone, v):
    """Classify an integer point: outside, boundary, relative_interior."""
    if len(v) != cone.ambient_rank:
        raise DimensionError("point length mismatch")
    if is_zero(v):
        return RELATIVE_INTERIOR if cone.dim == 0 else BOUNDARY
    if cone.dim == 0:
        return OUTSIDE
    # The span basis is saturated, so an integer point lies in the span
    # iff it has integer coordinates in that basis.
    if cone.dim < cone.ambient_rank:
        if express_in_hnf(cone.span_basis, cone.ambient_rank, v) is None:
            return OUTSIDE
    on_facet = False
    for h in cone.facet_normals:
        s = dot(h, v)
        if s < 0:
            return OUTSIDE
        on_facet = on_facet or s == 0
    return BOUNDARY if on_facet else RELATIVE_INTERIOR


def member(cone, v):
    return contains_point(cone, v) != OUTSIDE


def interior_point(cone):
    """An integer point in the relative interior (sum of the extreme rays)."""
    if cone.dim == 0:
        return tuple([0] * cone.ambient_rank)
    p = [0] * cone.ambient_rank
    for r in cone.rays:
        p = [a + b for a, b in zip(p, r)]
    return tuple(p)


def dual(cone):
    """Dual cone of a full-dimensional cone (pointed since cone is full)."""
    if cone.dim != cone.ambient_rank:
        raise DualNotPointedError("dual of a non-full-dimensional cone is not pointed")
    if cone.ambient_rank == 0:
        return cone
    return from_rays([list(h) for h in cone.facet_normals], cone.ambient_rank)


def faces(cone):
    """All faces of the cone, including {0} and the cone itself, found by
    walking facets of facets: one `from_rays` per face."""
    found = {cone.rays: cone}
    todo = [cone]
    while todo:
        f = todo.pop()
        for h in f.facet_normals:
            rays = tuple(r for r in f.rays if dot(h, r) == 0)
            if rays not in found:
                found[rays] = from_rays(rays, cone.ambient_rank)
                todo.append(found[rays])
    return sorted(found.values(), key=lambda c: (c.dim, c.rays))


def facets(cone):
    """Codimension-one faces: one per facet normal, cut out by the rays on
    which it vanishes."""
    fs = [
        from_rays([r for r in cone.rays if dot(h, r) == 0], cone.ambient_rank)
        for h in cone.facet_normals
    ]
    return sorted(fs, key=lambda f: f.rays)


def intersect_cones(c1, c2):
    """Intersection cone: c1 sliced by both sides of each equation of c2's
    span, then by each facet normal of c2.  Cutting down to the span
    first leaves a smaller cone for the facet cuts, or none at all."""
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    n = c1.ambient_rank
    cuts = []
    if c2.dim < n:
        for e in integer_kernel(c2.span_basis, n):
            cuts += [(e, 1), (e, -1)]
    cuts += [(h, 1) for h in c2.facet_normals]
    out = c1
    for h, sign in cuts:
        if out.dim == 0:
            break
        out = halfspace_slice(out, h, sign)
    return out


def is_face_of(f, cone):
    """True iff f equals cone ∩ ker(h) for a supporting functional h.

    The smallest face of cone containing f is cut out by the facet
    normals vanishing on f; f is a face iff it has that face's rays.
    """
    if f.ambient_rank != cone.ambient_rank:
        raise DimensionError("ambient ranks differ")
    if not all(member(cone, r) for r in f.rays):
        return False
    vanishing = [h for h in cone.facet_normals if all(dot(h, r) == 0 for r in f.rays)]
    return f.rays == tuple(
        r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing)
    )


def common_face(c1, c2):
    """True iff c1 ∩ c2 is a face of both cones."""
    inter = intersect_cones(c1, c2)
    return is_face_of(inter, c1) and is_face_of(inter, c2)


def contains_cone(big, small):
    return all(member(big, r) for r in small.rays)


def halfspace_slice(cone, h, sign):
    """cone ∩ {x : sign * <h, x> >= 0} as a Cone: one double-description
    step (Fukuda–Prodon 1996) over the cone's rays and facet incidences.

    With v_r = sign * <h, r>, the rays with v_r >= 0 stay, and each pair
    that `_dd_pairs` finds adds its combination on the hyperplane.  The
    zero sets are exact because a Cone is pointed and its facet normals
    are its complete facet list.
    """
    vals = [sign * dot(h, r) for r in cone.rays]
    if all(v >= 0 for v in vals):
        return cone
    zeros = [
        frozenset(i for i, g in enumerate(cone.facet_normals) if dot(g, r) == 0)
        for r in cone.rays
    ]
    kept = [r for r, v in zip(cone.rays, vals) if v >= 0]
    kept += [v for _, _, v in _dd_pairs(vals, zeros, cone.rays)]
    if not kept:
        return zero_cone(cone.ambient_rank)
    return from_rays(kept, cone.ambient_rank)


def _dd_pairs(vals, zeros, vectors):
    """(p, q, v) for each pair of generators with vals[p] > 0 > vals[q]
    that spans a 2-face, v the primitive vals[p]·vectors[q] −
    vals[q]·vectors[p], on which the cut vanishes.

    The generators are the extreme rays of a pointed cone and zeros[r] is
    the set of its defining inequalities tight at r.  A pair spans a
    2-face iff no third generator is tight wherever both are.
    """
    out = []
    for p, vp in enumerate(vals):
        if vp <= 0:
            continue
        for q, vq in enumerate(vals):
            if vq >= 0:
                continue
            common = zeros[p] & zeros[q]
            if any(common <= z for t, z in enumerate(zeros) if t != p and t != q):
                continue
            rp, rq = vectors[p], vectors[q]
            v = primitive(tuple(vp * b - vq * a for a, b in zip(rp, rq)))
            out.append((p, q, v))
    return out


def split_by_hyperplanes(cones, hyperplanes):
    """Refine a list of cones by the hyperplanes {<h, x> = 0}.

    Keeps every resulting cell (cells of all dimensions may appear but
    only cells of the original dimensions matter to callers).
    """
    cells = list(cones)
    for h in hyperplanes:
        new_cells = []
        for c in cells:
            sides = [halfspace_slice(c, h, 1), halfspace_slice(c, h, -1)]
            for s in sides:
                if s.dim == c.dim and s not in new_cells:
                    new_cells.append(s)
            if all(s.dim < c.dim for s in sides) and c not in new_cells:
                new_cells.append(c)
        cells = new_cells
    return cells


def arrangement_cells(hyperplanes, ambient_rank):
    """Cells of the central arrangement {<h, x> = 0} of the hyperplanes.

    The 2^n orthants of R^n are split by every hyperplane; exact and fine
    for the small ranks this library targets.  Cells of lower dimension
    may appear, so callers keep the full-dimensional ones.
    """
    n = ambient_rank
    orthants = []
    for mask in range(2 ** n):
        rays = []
        for i in range(n):
            sign = -1 if (mask >> i) & 1 else 1
            rays.append(tuple(sign if j == i else 0 for j in range(n)))
        orthants.append(from_rays(rays, n))
    return split_by_hyperplanes(orthants, hyperplanes)


def _splitting_hyperplanes(target, pieces):
    """Facet hyperplanes of the pieces that actually cut the target."""
    hyperplanes = []
    for p in pieces:
        if p.dim < target.dim:
            continue
        for h in p.facet_normals:
            if h in hyperplanes or tuple(-x for x in h) in hyperplanes:
                continue
            signs = [dot(h, r) for r in target.rays]
            if any(s > 0 for s in signs) and any(s < 0 for s in signs):
                hyperplanes.append(h)
    return hyperplanes


def uncovered_point(target, pieces):
    """An integer interior point of target outside every piece, or None.

    Exact: the target is split by every facet hyperplane of every piece
    that cuts it; each full-dimensional cell is represented by an interior
    point which must land in some piece.
    """
    cells = split_by_hyperplanes([target], _splitting_hyperplanes(target, pieces))
    for cell in cells:
        if cell.dim != target.dim:
            continue
        pt = interior_point(cell)
        if not any(member(p, pt) for p in pieces):
            return pt
    return None


def cone_covered_by(target, pieces):
    """Exact test: is `target` contained in the union of `pieces`?"""
    return uncovered_point(target, pieces) is None


def same_union(cones1, cones2):
    """Exact test: do two lists of cones cover the same set?"""
    return all(cone_covered_by(c, cones2) for c in cones1) and all(
        cone_covered_by(c, cones1) for c in cones2
    )
