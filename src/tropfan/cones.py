"""Exact pointed rational polyhedral cones.

A Cone keeps three descriptions in sync: primitive extreme rays, a
saturated basis of the lattice of its linear span (in HNF), and facet
normals as ambient integer functionals.  Membership is a sign test plus,
for a lower-dimensional cone, an integer HNF span test.  Facets come
from double description (`_dd_cut`): the facet normals are the extreme
rays of the dual cone, found by cutting a simplicial cone by one
generator at a time, and the same incidences give the extreme rays and
pointedness (`extreme_generators`, which a wall merge also applies to
its pieces' facets).  The facet list is complete and irredundant, so
ray–facet incidences decide the rest: every cut (`_cut`) is one double-description
pass over the rays, so a half-space slice cuts by one row and an
intersection by the other cone's span equations and facet normals, and
faces and face tests are read from the facet normals vanishing on each
ray.  A cut, a face or a facet is then built from those incidences
(`_from_incidences`) with no `from_rays`: its facets are cut out by the
parent's facet normals and the cut rows whose zero sets on its rays are
maximal, and `canonical_normals` turns those into the normals
`from_rays` would give (the translation shear uses it too).  `from_rays`
stays for generators whose facets are unknown.
All cones are pointed: a cone is pointed iff none of its generators
vanishes on the whole dual cone, and non-pointed input is rejected.

The simplicial cone that starts the dual step (`_simplicial_start`) also
starts the chambers of a hyperplane arrangement: n independent normals
cut R^n into 2^n simplicial chambers, and `arrangement_chambers` splits
those by the remaining normals.
"""

from dataclasses import dataclass
from itertools import product

from . import lattice as lat
from ._linalg import (
    dot,
    express_in_hnf,
    hnf,
    integer_kernel,
    is_zero,
    pivot_columns,
    primitive,
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
    # Facet normals in span coordinates: the extreme rays of the dual cone
    # {y : <c, y> >= 0 for every coordinate row c}, which is pointed
    # because the rows span R^d.  Double description starts from the
    # simplicial cone of d independent rows and cuts by the others, each
    # row labelled by its generator, so each normal's zero set holds the
    # generators it vanishes on.
    basis, start = _simplicial_start(coords, d)
    normals_d, zeros = _dd_cut(
        start,
        [frozenset(basis) - {i} for i in basis],
        [(j, c) for j, c in enumerate(coords) if j not in basis],
    )
    tight = [
        frozenset(k for k, z in enumerate(zeros) if j in z) for j in range(len(prims))
    ]
    extreme = extreme_generators(prims, tight, len(normals_d))
    if extreme is None:
        raise PointednessError(f"cone generated by {rays} contains a line")
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


def extreme_generators(gens, tight, n_facets):
    """The generators that are extreme rays of the cone they generate, in
    order, or None when that cone contains a line.

    tight[j] is the set of facets tight at gens[j], out of the cone's
    complete list of n_facets facets.  A generator tight on every facet
    lies in the lineality space, and one exists iff the cone contains a
    line, since the minimal face is generated by the generators in it.
    A generator is extreme iff no other generator is tight on every facet
    it is tight on.
    """
    if any(len(t) == n_facets for t in tight):
        return None
    return [
        g
        for j, g in enumerate(gens)
        if not any(i != j and tight[j] <= t for i, t in enumerate(tight))
    ]


def _simplicial_start(rows, d):
    """(basis, duals) for integer rows of length d.

    `basis` indexes a maximal independent set of rows, the pivot columns
    of one HNF of the transposed rows.  When the rows span Q^d, duals[k]
    is the primitive vector that vanishes on every basis row but the k-th
    and is positive on that one, so the duals are the extreme rays of the
    simplicial cone cut out by the basis rows.
    """
    basis = pivot_columns(hnf(list(zip(*rows)), len(rows)), len(rows))
    duals = []
    for i in basis:
        y = primitive(integer_kernel([rows[j] for j in basis if j != i], d)[0])
        duals.append(y if dot(rows[i], y) > 0 else tuple(-x for x in y))
    return basis, duals


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
    walking facets of facets.  Each face is built from its parent's facet
    incidences (`_from_incidences`), with no `from_rays`."""
    found = {cone.rays: cone}
    todo = [cone]
    while todo:
        f = todo.pop()
        for rays, zeros in _facet_incidences(f):
            if rays not in found:
                found[rays] = _from_incidences(
                    rays, zeros, f.facet_normals, f.span_basis, cone.ambient_rank
                )
                todo.append(found[rays])
    return sorted(found.values(), key=lambda c: (c.dim, c.rays))


def facets(cone):
    """Codimension-one faces: one per facet normal, cut out by the rays on
    which it vanishes and built from the cone's facet incidences."""
    fs = [
        _from_incidences(
            rays, zeros, cone.facet_normals, cone.span_basis, cone.ambient_rank
        )
        for rays, zeros in _facet_incidences(cone)
    ]
    return sorted(fs, key=lambda f: f.rays)


def _facet_incidences(cone):
    """(rays, zeros) for each facet normal in turn: the rays on which it
    vanishes, and for each of them the indexes of the normals vanishing
    on it."""
    zeros = _zero_sets(cone.rays, cone.facet_normals)
    for i in range(len(cone.facet_normals)):
        on = [k for k, z in enumerate(zeros) if i in z]
        yield tuple(cone.rays[k] for k in on), [zeros[k] for k in on]


def _zero_sets(rays, functionals):
    """For each ray, the set of indexes of the functionals vanishing on it."""
    return [
        frozenset(i for i, g in enumerate(functionals) if dot(g, r) == 0)
        for r in rays
    ]


def _from_incidences(rays, zeros, functionals, span_basis, ambient_rank):
    """The cone with extreme rays `rays`, from integer functionals that
    are nonnegative on it and, within the saturated span `span_basis`,
    cut it out; zeros[k] is the set of indexes of the functionals
    vanishing on rays[k].

    Its faces are cut out by the functionals, so its facets are those of
    the functionals whose ray sets are maximal among the proper ones
    (Ziegler, Lectures on Polytopes, §2.2); a functional vanishing on
    every ray is an implicit equality.  With none, the cone has the whole
    span; else its span is recomputed from the rays.
    """
    if not rays:
        return zero_cone(ambient_rank)
    masks = [0] * len(functionals)
    for k, z in enumerate(zeros):
        for i in z:
            masks[i] |= 1 << k
    full = (1 << len(rays)) - 1
    if full in masks:
        # A primitive vector spans a saturated lattice.
        span = lat.canonicalize(rays, ambient_rank)
        span_basis = (span if len(rays) == 1 else lat.saturate(span)).basis
    first = {}
    for i, m in enumerate(masks):
        if m != full:
            first.setdefault(m, functionals[i])
    maximal = []
    for m in sorted(first, key=int.bit_count, reverse=True):
        if not any(m & a == m for a in maximal):
            maximal.append(m)
    return Cone(
        ambient_rank,
        tuple(sorted(rays)),
        tuple(span_basis),
        canonical_normals(span_basis, [first[m] for m in maximal], ambient_rank),
    )


def canonical_normals(span_basis, functionals, ambient_rank):
    """The facet normals `from_rays` gives a cone with this saturated
    span basis, from ambient functionals that each cut out one of its
    facets, sorted.  In full dimension a normal is the primitive
    functional; else the functional is read in the span basis, made
    primitive, lifted (`_lift_functionals`) and made primitive again."""
    if len(span_basis) == ambient_rank:
        return tuple(sorted(primitive(h) for h in functionals))
    values = [primitive([dot(s, h) for s in span_basis]) for h in functionals]
    lifted = _lift_functionals(span_basis, values, ambient_rank)
    return tuple(sorted(primitive(y) for y in lifted))


def span_equations(cone):
    """A basis of the integer functionals vanishing on the cone's span:
    none for a full-dimensional cone, the unit vectors for the zero cone."""
    if cone.dim == cone.ambient_rank:
        return []
    return integer_kernel(cone.span_basis, cone.ambient_rank)


def intersect_cones(c1, c2):
    """Intersection cone: c1 cut by c2's span equations, as equations, and
    then by c2's facet normals, in one `_cut`."""
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    eqs = span_equations(c2)
    return _cut(c1, eqs + list(c2.facet_normals), len(eqs))


def is_face_of(f, cone):
    """True iff f equals cone ∩ ker(h) for a supporting functional h.

    The smallest face of cone containing f is cut out by the facet
    normals vanishing on f; f is a face iff it has that face's rays.
    """
    if f.ambient_rank != cone.ambient_rank:
        raise DimensionError("ambient ranks differ")
    return _is_face(f.rays, cone)


def _is_face(rays, cone):
    """`is_face_of` for a cone given by its sorted extreme rays alone."""
    if not all(member(cone, r) for r in rays):
        return False
    vanishing = [h for h in cone.facet_normals if all(dot(h, r) == 0 for r in rays)]
    return rays == tuple(r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing))


def common_face(c1, c2):
    """True iff c1 ∩ c2 is a face of both cones."""
    inter = intersect_cones(c1, c2)
    return is_face_of(inter, c1) and is_face_of(inter, c2)


def contains_cone(big, small):
    return all(member(big, r) for r in small.rays)


def halfspace_slice(cone, h, sign):
    """cone ∩ {x : sign * <h, x> >= 0} as a Cone."""
    return _cut(cone, [tuple(sign * x for x in h)])


def _cut(cone, rows, n_eq=0):
    """cone ∩ {x : <f, x> >= 0 for each row f}, the first n_eq rows taken
    as equations <f, x> = 0: one `_dd_cut` pass over the cone's rays and
    their facet incidences, which are exact because a Cone is pointed and
    its facet normals are its complete facet list.  Returns the cone
    itself when no row cuts it, else the cone built from the rays left
    and their zero sets over the facet normals and the rows
    (`_from_incidences`), with no `from_rays`."""
    normals = cone.facet_normals
    labelled = list(enumerate(rows, len(normals)))
    kept, zeros = _dd_cut(
        list(cone.rays), _zero_sets(cone.rays, normals), labelled, n_eq
    )
    if kept == list(cone.rays):
        return cone
    return _from_incidences(
        kept, zeros, list(normals) + list(rows), cone.span_basis, cone.ambient_rank
    )


def _dd_cut(rays, zeros, rows, n_eq=0):
    """Double description (Motzkin et al. 1953; Fukuda–Prodon 1996): the
    pointed cone with extreme rays `rays`, cut in turn by each row
    (label, f) as <f, x> >= 0, or as <f, x> = 0 for the first n_eq rows.

    zeros[k] is the set of labels of the inequalities tight at rays[k].
    Returns the extreme rays of the cut cone and their zero sets.
    """
    for i, (label, row) in enumerate(rows):
        if not rays:
            break
        vals = [dot(row, r) for r in rays]
        pairs = _dd_pairs(vals, zeros, rays)
        keep = [k for k, v in enumerate(vals) if v == 0 or (v > 0 and i >= n_eq)]
        zeros = [zeros[k] | {label} if vals[k] == 0 else zeros[k] for k in keep] + [
            zeros[p] & zeros[q] | {label} for p, q, _ in pairs
        ]
        rays = [rays[k] for k in keep] + [v for _, _, v in pairs]
    return rays, zeros


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

    A cell with rays strictly on both sides of h becomes its two sides,
    each of the cell's dimension; every other cell stays whole.  The sign
    scan over a cell's rays stops as soon as it has seen both signs.
    """
    cells = list(cones)
    for h in hyperplanes:
        new_cells = []
        for c in cells:
            if _crosses(h, c.rays):
                new_cells += [halfspace_slice(c, h, 1), halfspace_slice(c, h, -1)]
            else:
                new_cells.append(c)
        cells = new_cells
    return cells


def _crosses(h, rays):
    """Is ⟨h, r⟩ < 0 < ⟨h, r′⟩ for some rays r, r′?"""
    seen = 0
    for r in rays:
        v = dot(h, r)
        if v:
            sign = 1 if v > 0 else -1
            if seen == -sign:
                return True
            seen = sign
    return False


def arrangement_chambers(normals, ambient_rank):
    """Chambers of the central arrangement {<h, x> = 0} of normals that
    span R^n, as full-dimensional cones sorted by rays.

    n independent normals (`_simplicial_start`) cut R^n into the 2^n
    simplicial chambers spanned by the sign flips of their duals.  Each
    chamber of the whole arrangement lies in one of them, so splitting
    them by the other normals gives every chamber exactly once.
    """
    normals = [tuple(h) for h in normals]
    basis, duals = _simplicial_start(normals, ambient_rank)
    if len(basis) != ambient_rank:
        raise DimensionError(f"normals {normals} do not span R^{ambient_rank}")
    flips = [(y, tuple(-x for x in y)) for y in duals]
    start = [from_rays(rays, ambient_rank) for rays in product(*flips)]
    rest = [h for j, h in enumerate(normals) if j not in basis]
    return sorted(split_by_hyperplanes(start, rest), key=lambda c: c.rays)


def uncovered_point(target, pieces):
    """An integer interior point of target outside every piece, or None.

    Exact: the target is split by every facet hyperplane of every piece of
    at least its dimension (a hyperplane that cuts no cell, such as one
    already used, leaves the cells whole); each cell, of the target's
    dimension, is represented by an interior point which must land in
    some piece.
    """
    hyperplanes = [h for p in pieces if p.dim >= target.dim for h in p.facet_normals]
    for cell in split_by_hyperplanes([target], hyperplanes):
        pt = interior_point(cell)
        if not any(member(p, pt) for p in pieces):
            return pt
    return None


def cone_covered_by(target, pieces):
    """Exact test: is `target` contained in the union of `pieces`?"""
    return uncovered_point(target, pieces) is None


def union_difference(cones1, cones2):
    """An interior point of a cone of one list outside the other list's
    union, or None when the two unions are equal.  The first list's cones
    are scanned first, in order, then the second list's."""
    for targets, pieces in ((cones1, cones2), (cones2, cones1)):
        for target in targets:
            pt = uncovered_point(target, pieces)
            if pt is not None:
                return pt
    return None
