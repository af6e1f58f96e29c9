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
ray–facet incidences decide the rest, with no cone built for them:
- The faces are the closure of the facets' ray bitmasks under
  intersection (`face_walk`), each with the span basis of its rays.
- Every cut is one double-description pass over the rays
  (`_cut_incidences`), whose zero sets are exact: a half-space slice
  cuts by one row, an intersection by the other cone's span equations
  and facet normals (`cut_rows`).  `cut_pass` gives the cut's rays and
  the functionals tight on all of them, and a set of rays spans a face
  iff it is the set of rays tight on the normals it shares
  (`tight_rays`), which decides `common_face`.
A cut, a face or a facet that is wanted as a Cone is built from those
incidences (`_from_incidences`) with no `from_rays`: its facets are cut
out by the parent's facet normals and the cut rows whose zero sets on
its rays are maximal, and `canonical_normals` turns those into the
normals `from_rays` would give (the translation shear uses it too).
`from_rays` stays for generators whose facets are unknown.
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
    """All faces of the cone, including {0} and the cone itself, sorted by
    (dimension, rays): one per face of `face_walk`, each built from its
    rays' incidences with the cone's own facet normals (`_face`), with no
    `from_rays`."""
    facet_masks, walk = _face_walk(cone)
    return [_face(cone, facet_masks, *face) for face in walk]


def facets(cone):
    """Codimension-one faces: one per facet normal, cut out by the rays on
    which it vanishes and built from the cone's facet incidences."""
    n = cone.ambient_rank
    facet_masks = _facet_masks(cone)
    fs = []
    for mask in facet_masks:
        rays = _rays_in(cone, mask)
        fs.append(_face(cone, facet_masks, rays, ray_span(rays, n), mask))
    return sorted(fs, key=lambda f: f.rays)


def face_walk(cone):
    """(rays, span basis) for each face of the cone, sorted by (dimension,
    rays) as `faces` sorts them, with no cone built.

    A pointed cone's faces are the intersections of its facets (Ziegler,
    Lectures on Polytopes, §2.2), and each face is the cone over the rays
    it holds.  So the faces are the closure of the facets' ray bitmasks
    (bit k for rays[k], `_facet_masks`) under intersection, with the
    whole mask for the cone itself; the empty mask is {0}.  A face's span
    basis is the cone's for the cone itself, else that of its rays
    (`ray_span`).
    """
    return [(rays, span_basis) for rays, span_basis, _ in _face_walk(cone)[1]]


def _face_walk(cone):
    """(`_facet_masks(cone)`, [(rays, span basis, ray mask)] of each face,
    as `face_walk` orders them)."""
    facet_masks = _facet_masks(cone)
    full = (1 << len(cone.rays)) - 1
    found = {full}
    todo = [full]
    while todo:
        f = todo.pop()
        for m in facet_masks:
            if f & m not in found:
                found.add(f & m)
                todo.append(f & m)
    walk = []
    for mask in found:
        rays = _rays_in(cone, mask)
        if mask == full:
            walk.append((rays, cone.span_basis, mask))
        else:
            walk.append((rays, ray_span(rays, cone.ambient_rank), mask))
    walk.sort(key=lambda face: (len(face[1]), face[0]))
    return facet_masks, walk


def _face(cone, facet_masks, rays, span_basis, mask):
    """The face of the cone with these rays, span basis and ray mask,
    built from the facet masks restricted to it (`_from_incidences`)."""
    if rays == cone.rays:
        return cone
    if not rays:
        return zero_cone(cone.ambient_rank)
    masks = [m & mask for m in facet_masks]
    return _from_incidences(
        rays, masks, mask, cone.facet_normals, span_basis, cone.ambient_rank
    )


def _rays_in(cone, mask):
    """The rays of the cone whose bits are set in `mask`, in order."""
    return tuple(r for k, r in enumerate(cone.rays) if mask >> k & 1)


def _facet_masks(cone):
    """For each facet normal, the bitmask of the rays it vanishes on."""
    return _masks(_zero_sets(cone.rays, cone.facet_normals), len(cone.facet_normals))


def _zero_sets(rays, functionals):
    """For each ray, the set of indexes of the functionals vanishing on it."""
    return [
        frozenset(i for i, g in enumerate(functionals) if dot(g, r) == 0)
        for r in rays
    ]


def _masks(zeros, count):
    """For each of `count` functionals, the bitmask of the rays it vanishes
    on (bit k for rays[k]), from the rays' zero sets."""
    masks = [0] * count
    for k, z in enumerate(zeros):
        for i in z:
            masks[i] |= 1 << k
    return masks


def ray_span(rays, ambient_rank):
    """The HNF basis of Z^n ∩ Span(rays), for primitive rays; one ray is
    its own saturated basis, up to sign."""
    if not rays:
        return ()
    span = lat.canonicalize(rays, ambient_rank)
    return (span if len(rays) == 1 else lat.saturate(span)).basis


def _from_incidences(rays, masks, full, functionals, span_basis, ambient_rank):
    """The cone with extreme rays `rays` and saturated span basis
    `span_basis`, from integer functionals that are nonnegative on it and
    cut it out within that span; masks[i] is the bitmask of the rays on
    which functionals[i] vanishes, and `full` that of all the rays.

    Its faces are cut out by the functionals, so its facets are those of
    the functionals whose ray sets are maximal among the proper ones
    (Ziegler, Lectures on Polytopes, §2.2); a functional vanishing on
    every ray is an implicit equality.
    """
    first = {}
    for h, m in zip(functionals, masks):
        if m != full:
            first.setdefault(m, h)
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
    return _cut(c1, *cut_rows(c2))


def cut_rows(cone):
    """(rows, n_eq): the cone's span equations, then its facet normals.
    A cut by these rows, the first n_eq as equations, cuts another cone
    down to its intersection with this one."""
    eqs = span_equations(cone)
    return eqs + list(cone.facet_normals), len(eqs)


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
    """True iff c1 ∩ c2 is a face of both cones, decided from the rays and
    zero sets of one `cut_pass` of c1 by c2's `cut_rows`, with no cone
    built: the intersection is a face of c1, and of c2, iff its rays are
    the rays of that cone tight on its normals that the zero sets share
    (`tight_rays`)."""
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    zeros1 = _zero_sets(c1.rays, c1.facet_normals)
    rays, own, other = cut_pass(c1, *cut_rows(c2), zeros1)
    return rays == tight_rays(c1, zeros1, own) and rays == tight_rays(
        c2, _zero_sets(c2.rays, c2.facet_normals), other
    )


def tight_rays(cone, zeros, labels):
    """The rays of `cone` on which every facet normal indexed by `labels`
    vanishes, zeros[k] being the set of normals vanishing on rays[k].

    When `labels` are the normals vanishing on every ray of a set of rays
    of the cone, these are the rays of the smallest face holding them, so
    the set spans a face iff it is exactly these rays.
    """
    return [r for r, z in zip(cone.rays, zeros) if labels <= z]


def contains_cone(big, small):
    return all(member(big, r) for r in small.rays)


def halfspace_slice(cone, h, sign):
    """cone ∩ {x : sign * <h, x> >= 0} as a Cone."""
    return _cut(cone, [tuple(sign * x for x in h)])


def _cut(cone, rows, n_eq=0):
    """cone ∩ {x : <f, x> >= 0 for each row f}, the first n_eq rows taken
    as equations <f, x> = 0: the rays and zero sets of one `_dd_cut`
    pass (`_cut_incidences`), then the cone built from them
    (`_from_incidences`) over the facet normals and the rows, with no
    `from_rays`.  Returns the cone itself when no row cuts it.  A
    functional vanishing on every ray left is an implicit equality; with
    none, the cut has the cone's span, else the span of its rays."""
    n = cone.ambient_rank
    kept, zeros = _cut_incidences(cone, rows, n_eq)
    if kept == list(cone.rays):
        return cone
    if not kept:
        return zero_cone(n)
    functionals = list(cone.facet_normals) + list(rows)
    masks = _masks(zeros, len(functionals))
    full = (1 << len(kept)) - 1
    span_basis = ray_span(kept, n) if full in masks else cone.span_basis
    return _from_incidences(kept, masks, full, functionals, span_basis, n)


def _cut_incidences(cone, rows, n_eq=0, zeros=None):
    """The `_dd_cut` pass of `_cut`: the extreme rays of the cut cone and
    their zero sets, in which label i < len(cone.facet_normals) is facet
    normal i and label len(cone.facet_normals) + j is rows[j].  The zero
    sets are exact because a Cone is pointed and its facet normals are
    its complete facet list.  `zeros`, when given, holds the cone's own
    rays' zero sets over its facet normals (`_zero_sets`)."""
    if zeros is None:
        zeros = _zero_sets(cone.rays, cone.facet_normals)
    labelled = list(enumerate(rows, len(cone.facet_normals)))
    return _dd_cut(list(cone.rays), zeros, labelled, n_eq)


def cut_pass(cone, rows, n_eq=0, zeros=None):
    """(rays, own, other) for the cut of `_cut`, with no cone built: its
    sorted extreme rays; the indexes i of the cone's facet normals, and
    the indexes j of the inequality rows rows[n_eq + j], that vanish on
    all of them (all indexes when the cut is {0})."""
    kept, cut_zeros = _cut_incidences(cone, rows, n_eq, zeros)
    shared = frozenset(range(len(cone.facet_normals) + len(rows)))
    for z in cut_zeros:
        shared &= z
    offset = len(cone.facet_normals) + n_eq
    own = frozenset(x for x in shared if x < len(cone.facet_normals))
    return sorted(kept), own, frozenset(x - offset for x in shared if x >= offset)


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
