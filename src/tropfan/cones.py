"""Exact pointed rational polyhedral cones.

A Cone keeps three descriptions in sync: primitive extreme rays, a
saturated basis of the lattice of its linear span (in HNF), and facet
normals as ambient integer functionals.  It also carries its ray–facet
incidences, span equations and face walk, each worked out once, on first
use, and kept in a slot (`_carried`):
- `zero_masks[k]`: the facet normals vanishing on rays[k];
- `facet_masks[i]`: the rays on which facet_normals[i] vanishes, the
  transpose of `zero_masks`;
- `span_equations`: a basis of the integer functionals vanishing on the
  span;
- `face_walk`: a tuple of (rays, span basis, ray mask), one per face.
Every zero set in this module is an int bitmask in which bit i stands for
functional (or label, or ray) i.

Membership is a sign test plus, for a lower-dimensional cone, an integer
HNF span test.  Facets come from double description (`_dd_cut`): the
facet normals are the extreme rays of the dual cone, found by cutting a
simplicial cone by one generator at a time; the lifted normals then give
the extreme rays and pointedness (`extreme_generators`, one plain-loop
pass of zero masks that stops at the first generator in the lineality
space; a wall merge also applies it to its pieces' facets).  The facet
list is complete and irredundant, so ray–facet incidences decide the
rest, with no cone built for them:
- The faces are the closure of the facet masks under intersection
  (`Cone.face_walk`), each with the span basis of its rays; a facet's
  rays are those tight on its normal (`tight_rays`).
- Every cut is one double-description pass over the rays
  (`_cut_incidences`), whose zero masks are exact: a half-space slice
  cuts by one row, an intersection by the other cone's span equations
  and facet normals (`cut_rows`).  `cut_pass` gives the cut's rays and
  the functionals tight on all of them, and a set of rays spans a face
  iff it is the set of rays tight on the normals it shares
  (`tight_rays`), which decides `common_face`.  A cut of the λ-orthant
  decides whether nonnegative combinations meet a set of rows
  (`orthant_cut_is_nonzero`).
A cut or a face that is wanted as a Cone is built from those
incidences (`_from_incidences`; `face_cone` for an entry of the face
walk) with no `from_rays`: its facets are cut out by the parent's facet
normals and the cut rows whose zero masks on its rays are maximal, and
`canonical_normals` turns those into the normals `from_rays` would give
(the translation shear uses it too).  `from_rays` stays for generators
whose facets are unknown.
All cones are pointed: a cone is pointed iff none of its generators
vanishes on the whole dual cone, and non-pointed input is rejected.

Splitting by hyperplanes is one depth-first walk (`_split_walk`):
`split_by_hyperplanes` takes all its leaf cells, and `first_uncovered`
(hence coverage and union equality) stops it at cells that one piece
holds, from a plan of holders and hyperplanes (`_cover_plan`) that it
builds once per target dimension.  The simplicial cone that starts the
dual step (`_simplicial_start`) also starts the chambers of a
hyperplane arrangement: n independent normals cut R^n into 2^n
simplicial chambers, and `arrangement_chambers` splits those by the
remaining normals.
"""

from dataclasses import dataclass, field
from itertools import product
from operator import mul

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


class _carried:
    """A Cone attribute worked out on first use and kept in the slot of
    the same name with a leading underscore.

    A `functools.cached_property` would keep it in an instance dict, and
    CPython reads every attribute of an instance that has a dict more
    slowly than one that keeps its attributes in slots."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, cone, owner=None):
        if cone is None:
            return self
        value = getattr(cone, self.slot)
        if value is None:
            value = self.func(cone)
            object.__setattr__(cone, self.slot, value)
        return value


def _slot():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Cone:
    ambient_rank: int
    rays: tuple          # sorted primitive integer tuples (extreme rays)
    span_basis: tuple    # HNF basis of Z^n ∩ Span(cone)
    facet_normals: tuple # ambient integer functionals; x ∈ cone ⇔ x ∈ span, all ⟨h,x⟩ ≥ 0
    _zero_masks: tuple = _slot()
    _facet_masks: tuple = _slot()
    _span_equations: tuple = _slot()
    _face_walk: tuple = _slot()

    @property
    def dim(self):
        return len(self.span_basis)

    @_carried
    def zero_masks(self):
        """For each ray, the bitmask of the facet normals vanishing on it."""
        return tuple(_zero_mask(r, self.facet_normals) for r in self.rays)

    @_carried
    def facet_masks(self):
        """For each facet normal, the bitmask of the rays it vanishes on."""
        return _transpose(self.zero_masks, len(self.facet_normals))

    @_carried
    def span_equations(self):
        """A basis of the integer functionals vanishing on the span: none
        for a full-dimensional cone, the unit vectors for the zero cone."""
        if self.dim == self.ambient_rank:
            return ()
        return tuple(integer_kernel(self.span_basis, self.ambient_rank))

    @_carried
    def face_walk(self):
        """(rays, span basis, ray mask) for each face, sorted by
        (dimension, rays) as `faces` sorts them, with no cone built.

        A pointed cone's faces are the intersections of its facets
        (Ziegler, Lectures on Polytopes, §2.2), and each face is the cone
        over the rays it holds.  So the faces are the closure of the
        `facet_masks` (bit k for rays[k]) under intersection, with the
        whole mask for the cone itself; the empty mask is {0}.  A face's
        span basis is the cone's for the cone itself, else that of its
        rays (`ray_span`).
        """
        full = (1 << len(self.rays)) - 1
        found = {full}
        todo = [full]
        while todo:
            f = todo.pop()
            for m in self.facet_masks:
                if f & m not in found:
                    found.add(f & m)
                    todo.append(f & m)
        walk = []
        for mask in found:
            rays = _rays_in(self, mask)
            if mask == full:
                walk.append((rays, self.span_basis, mask))
            else:
                walk.append((rays, ray_span(rays, self.ambient_rank), mask))
        walk.sort(key=lambda face: (len(face[1]), face[0]))
        return tuple(walk)

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


def _zero_mask(x, functionals):
    """The bitmask of the functionals vanishing on x."""
    return sum(1 << i for i, h in enumerate(functionals) if dot(h, x) == 0)


def _transpose(zeros, count):
    """For each of `count` functionals, the bitmask of the rays it vanishes
    on (bit k for rays[k]), from the rays' zero masks."""
    return tuple(
        sum(1 << k for k, z in enumerate(zeros) if z >> i & 1) for i in range(count)
    )


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
        return zero_cone(ambient_rank)
    span = lat.saturate(lat.canonicalize(prims, ambient_rank))
    d = span.rank
    # A full span has the identity basis: the coordinates are the
    # generators and the lift below is the identity.
    full = d == ambient_rank
    coords = prims if full else [express_in_hnf(span.basis, ambient_rank, p) for p in prims]
    # Facet normals in span coordinates: the extreme rays of the dual cone
    # {y : <c, y> >= 0 for every coordinate row c}, which is pointed
    # because the rows span R^d.  Double description starts from the
    # simplicial cone of d independent rows and cuts by the others, each
    # row labelled by its generator.
    basis, start = _simplicial_start(coords, d)
    on_basis = sum(1 << j for j in basis)
    normals_d, _ = _dd_cut(
        start,
        [on_basis & ~(1 << i) for i in basis],
        [(j, c) for j, c in enumerate(coords) if j not in basis],
    )
    # Lift normals to ambient integer functionals (the span basis is
    # saturated, so an integer lift always exists); a lift takes the same
    # value at a generator as the normal at its coordinates.
    if not full:
        normals_d = _lift_functionals(span.basis, normals_d, ambient_rank)
    lifted = [primitive(y) for y in normals_d]
    extreme = extreme_generators(prims, lifted)
    if extreme is None:
        raise PointednessError(f"cone generated by {rays} contains a line")
    return Cone(
        ambient_rank,
        tuple(sorted(extreme)),
        tuple(span.basis),
        tuple(sorted(lifted)),
    )


def extreme_generators(gens, normals):
    """The generators that are extreme rays of the cone they generate, in
    order, or None when that cone contains a line.

    `normals` is that cone's complete list of facet normals.  A generator
    tight on every normal lies in the lineality space, and one exists iff
    the cone contains a line, since the minimal face is generated by the
    generators in it; the first such generator ends the scan.  A
    generator is extreme iff no other generator is tight on every normal
    it is tight on.

    Every merge attempt that passes the sign scans and the wall test of
    `fans.merge_across_wall` ends here, so it is written as plain loops
    over `sum(map(mul, h, g))` (the body of `_linalg.dot`), with no
    generator or call per normal.
    """
    full = (1 << len(normals)) - 1
    tight = []
    for g in gens:
        mask = 0
        for i, h in enumerate(normals):
            if sum(map(mul, h, g)) == 0:
                mask |= 1 << i
        if mask == full:
            return None
        tight.append(mask)
    extreme = []
    for j, (g, m) in enumerate(zip(gens, tight)):
        for i, t in enumerate(tight):
            if m & t == m and i != j:
                break
        else:
            extreme.append(g)
    return extreme


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
    """An integer point in the relative interior (sum of the extreme rays;
    the origin for the zero cone)."""
    p = [0] * cone.ambient_rank
    for r in cone.rays:
        p = [a + b for a, b in zip(p, r)]
    return tuple(p)


def faces(cone):
    """All faces of the cone, including {0} and the cone itself, sorted by
    (dimension, rays): one per entry of `face_walk`, built by
    `face_cone`, with no `from_rays`."""
    return [face_cone(cone, face) for face in cone.face_walk]


def face_cone(cone, face):
    """The face of the cone given by one `face_walk` entry (rays, span
    basis, ray mask), built from the facet masks restricted to it
    (`_from_incidences`)."""
    rays, span_basis, mask = face
    if rays == cone.rays:
        return cone
    if not rays:
        return zero_cone(cone.ambient_rank)
    masks = [m & mask for m in cone.facet_masks]
    return _from_incidences(
        rays, masks, mask, cone.facet_normals, span_basis, cone.ambient_rank
    )


def _rays_in(cone, mask):
    """The rays of the cone whose bits are set in `mask`, in order."""
    return tuple(r for k, r in enumerate(cone.rays) if mask >> k & 1)


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
    return cone.span_equations + cone.facet_normals, len(cone.span_equations)


def common_face(c1, c2):
    """True iff c1 ∩ c2 is a face of both cones, decided from one
    `cut_pass` of c1 by c2's `cut_rows`, with no cone built: the
    intersection is a face of c1, and of c2, iff its rays are the rays of
    that cone tight on its normals that vanish on the whole intersection
    (`tight_rays`)."""
    if c1.ambient_rank != c2.ambient_rank:
        raise DimensionError("ambient ranks differ")
    rays, own, other = cut_pass(c1, *cut_rows(c2))
    return rays == tight_rays(c1, own) and rays == tight_rays(c2, other)


def tight_rays(cone, normals):
    """The rays of `cone` on which every facet normal in the bitmask
    `normals` vanishes.

    When `normals` holds the normals vanishing on every ray of a set of
    rays of the cone, these are the rays of the smallest face holding
    them, so the set spans a face iff it is exactly these rays.
    """
    return [r for r, z in zip(cone.rays, cone.zero_masks) if z & normals == normals]


def contains_cone(big, small):
    return all(member(big, r) for r in small.rays)


def halfspace_slice(cone, h, sign):
    """cone ∩ {x : sign * <h, x> >= 0} as a Cone."""
    return _cut(cone, [tuple(sign * x for x in h)])


def _cut(cone, rows, n_eq=0):
    """cone ∩ {x : <f, x> >= 0 for each row f}, the first n_eq rows taken
    as equations <f, x> = 0: the rays and zero masks of one `_dd_cut`
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
    functionals = cone.facet_normals + tuple(rows)
    masks = _transpose(zeros, len(functionals))
    full = (1 << len(kept)) - 1
    span_basis = ray_span(kept, n) if full in masks else cone.span_basis
    return _from_incidences(kept, masks, full, functionals, span_basis, n)


def _cut_incidences(cone, rows, n_eq):
    """The `_dd_cut` pass of `_cut`: the extreme rays of the cut cone and
    their zero masks, in which bit i < len(cone.facet_normals) is facet
    normal i and bit len(cone.facet_normals) + j is rows[j].  The zero
    masks are exact because a Cone is pointed and its facet normals are
    its complete facet list."""
    labelled = list(enumerate(rows, len(cone.facet_normals)))
    return _dd_cut(list(cone.rays), list(cone.zero_masks), labelled, n_eq)


def cut_pass(cone, rows, n_eq):
    """(rays, own, other) for the cut of `_cut`, with no cone built: its
    sorted extreme rays; the bitmask of the cone's facet normals, and that
    of the inequality rows (bit j for rows[n_eq + j]), that vanish on all
    of them (all bits when the cut is {0})."""
    kept, zeros = _cut_incidences(cone, rows, n_eq)
    n_facets = len(cone.facet_normals)
    shared = (1 << (n_facets + len(rows))) - 1
    for z in zeros:
        shared &= z
    own = shared & ((1 << n_facets) - 1)
    return sorted(kept), own, shared >> (n_facets + n_eq)


def orthant_cut_is_nonzero(columns, n_eq):
    """Is there λ ≥ 0, λ ≠ 0, with Σ λ_r columns[r][i] = 0 for i < n_eq
    and ≥ 0 for the other i?  That is: is the λ-orthant, cut by the rows
    of the table, more than {0}?

    First the quick tests: a row negative on every column, or an equation
    row of one strict sign, rejects; a column zero on the equations and
    ≥ 0 on the rest accepts.  Otherwise the orthant, whose unit rays have
    the zero masks of its facets 0..R−1, is cut by the rows, labelled R,
    R+1, …, with `_dd_cut`.
    """
    rows = list(zip(*columns))
    for i, row in enumerate(rows):
        if max(row) < 0 or (i < n_eq and min(row) > 0):
            return False
    if any(
        all(v == 0 for v in col[:n_eq]) and all(v >= 0 for v in col[n_eq:])
        for col in columns
    ):
        return True
    R = len(columns)
    units = [tuple(int(k == r) for k in range(R)) for r in range(R)]
    zeros = [((1 << R) - 1) & ~(1 << r) for r in range(R)]
    rays, _ = _dd_cut(units, zeros, list(enumerate(rows, R)), n_eq)
    return bool(rays)


def _dd_cut(rays, zeros, rows, n_eq=0):
    """Double description (Motzkin et al. 1953; Fukuda–Prodon 1996): the
    pointed cone with extreme rays `rays`, cut in turn by each row
    (label, f) as <f, x> >= 0, or as <f, x> = 0 for the first n_eq rows.

    zeros[k] is the bitmask of the labels of the inequalities tight at
    rays[k].  Returns the extreme rays of the cut cone and their zero
    masks.
    """
    for i, (label, row) in enumerate(rows):
        if not rays:
            break
        bit = 1 << label
        vals = [dot(row, r) for r in rays]
        pairs = _dd_pairs(vals, zeros, rays)
        keep = [k for k, v in enumerate(vals) if v == 0 or (v > 0 and i >= n_eq)]
        zeros = [zeros[k] | bit if vals[k] == 0 else zeros[k] for k in keep] + [
            zeros[p] & zeros[q] | bit for p, q, _ in pairs
        ]
        rays = [rays[k] for k in keep] + [v for _, _, v in pairs]
    return rays, zeros


def _dd_pairs(vals, zeros, vectors):
    """(p, q, v) for each pair of generators with vals[p] > 0 > vals[q]
    that spans a 2-face, v the primitive vals[p]·vectors[q] −
    vals[q]·vectors[p], on which the cut vanishes.

    The generators are the extreme rays of a pointed cone and zeros[r] is
    the bitmask of its defining inequalities tight at r.  A pair spans a
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
            if any(
                common & z == common for t, z in enumerate(zeros) if t != p and t != q
            ):
                continue
            rp, rq = vectors[p], vectors[q]
            v = primitive(tuple(vp * b - vq * a for a, b in zip(rp, rq)))
            out.append((p, q, v))
    return out


def split_by_hyperplanes(cones, hyperplanes):
    """Refine a list of cones by the hyperplanes {<h, x> = 0}, taken in
    order: the leaves of each cone's `_split_walk`, cone by cone.

    A cell with rays strictly on both sides of h becomes its two sides,
    each of the cell's dimension, the `+` side first; every other cell
    stays whole.
    """
    return [cell for c in cones for cell in _split_walk(c, hyperplanes, ())]


def _split_walk(cone, hyperplanes, holders):
    """The leaf cells of the cone split by the hyperplanes in order, the
    `+` side of each before the `−` side, in the order of the fully split
    list.  A hyperplane that cuts no cell, such as one already used,
    leaves the cell whole; the sign scan over a cell's rays stops as soon
    as it has seen both signs.

    The split is walked depth first on an explicit stack.  A cell that one
    of the `holders` holds is split no further and gives no leaf: every
    leaf under it lies in that holder.
    """
    stack = [(cone, 0)]
    while stack:
        cell, i = stack.pop()
        while i < len(hyperplanes) and not _crosses(hyperplanes[i], cell.rays):
            i += 1
        if i == len(hyperplanes):
            yield cell
        elif not any(contains_cone(p, cell) for p in holders):
            h = hyperplanes[i]
            stack.append((halfspace_slice(cell, h, -1), i + 1))
            stack.append((halfspace_slice(cell, h, 1), i + 1))


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
    """An integer interior point of target outside every piece, or None:
    `first_uncovered` of the one target."""
    return first_uncovered([target], pieces)


def cone_covered_by(target, pieces):
    """Exact test: is `target` contained in the union of `pieces`?  The
    walk and the spanning-piece rule of `first_uncovered`."""
    return uncovered_point(target, pieces) is None


def union_difference(cones1, cones2):
    """An interior point of a cone of one list outside the other list's
    union, or None when the two unions are equal: `first_uncovered` of
    the first list's cones in the second's, then of the second's in the
    first's."""
    pt = first_uncovered(cones1, cones2)
    return pt if pt is not None else first_uncovered(cones2, cones1)


def first_uncovered(targets, pieces):
    """An integer point in the relative interior of the first target the
    pieces do not cover, lying in no piece; None when the pieces cover
    every target.  The targets are read once, in order.

    Exact: each target is split by every facet hyperplane of every piece
    of at least its dimension, in order, as `split_by_hyperplanes` splits
    it.  The plan of those holders and hyperplanes (`_cover_plan`) is
    built once per target dimension, each hyperplane kept once up to
    sign, at its first position: a cell below the first copy lies weakly
    on one side of it, so no later h or −h crosses it.  The walk
    (`_split_walk`) stops at cells that one of the holders holds, since
    every leaf under them is covered, so the first uncovered leaf is that
    of the full split.  A target whose rays are the rays of a piece is
    that piece, since a cone is fixed by its rays, so it is covered and
    gets no walk.

    A leaf cell counts as covered only when its interior point lies in a
    holder whose span holds the target's span (`_spans`); every other
    piece meets that span in a proper subspace.  The walk splits by every
    such piece's facets, so a leaf lies in it or meets it only on its
    boundary, and one point decides.  An uncovered leaf's relative
    interior then lies in no such piece, and `_point_in_no_piece` finds a
    point of it that the other pieces miss too.
    """
    plans = {}
    shared = {p.rays for p in pieces}
    for target in targets:
        if target.rays in shared:
            continue
        if target.dim not in plans:
            plans[target.dim] = _cover_plan(pieces, target.dim)
        holders, hyperplanes = plans[target.dim]
        for cell in _split_walk(target, hyperplanes, holders):
            pt = interior_point(cell)
            if not any(_spans(p, target) and member(p, pt) for p in holders):
                return _point_in_no_piece(cell, pieces)
    return None


def covers_space(pieces, ambient_rank):
    """Do the cones cover all of R^n?  Only the n-dimensional ones count:
    their union is closed, so a point they miss has an open neighbourhood
    they miss, which finitely many lower-dimensional cones cannot fill.
    R^n is covered by the n + 1 simplicial cones spanned by all but one
    of e_1, …, e_n and −(e_1 + … + e_n), and one `first_uncovered` over
    them plans the split once."""
    n = ambient_rank
    if n == 0:
        return True
    tops = [c for c in pieces if c.dim == n]
    gens = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    simplices = (from_rays(gens[:i] + gens[i + 1 :], n) for i in range(n + 1))
    return first_uncovered(simplices, tops) is None


def _cover_plan(pieces, dim):
    """(holders, hyperplanes) for covering a target of dimension `dim` by
    the pieces: the pieces of at least that dimension, and their facet
    normals in order, each once up to sign at its first position."""
    holders = [p for p in pieces if p.dim >= dim]
    hyperplanes, seen = [], set()
    for p in holders:
        for h in p.facet_normals:
            if h not in seen:
                hyperplanes.append(h)
                seen.update((h, tuple(-x for x in h)))
    return holders, hyperplanes


def _spans(piece, target):
    """Does the piece's span hold the target's?  Always for a
    full-dimensional piece, which has no span equations."""
    return all(dot(e, r) == 0 for e in piece.span_equations for r in target.rays)


def _point_in_no_piece(cell, pieces):
    """The first of the points Σᵢ kⁱ·rᵢ over the cell's rays rᵢ, for
    k = 1, 2, …, that lies in no piece; k = 1 gives `interior_point`.

    They all lie in the cell's relative interior, which no piece spanning
    the cell meets.  A proper subspace of the cell's span holds at most
    #rays − 1 of them, the roots of a nonzero polynomial in k of degree
    below #rays, so the search ends."""
    k = 1
    while True:
        pt = tuple(
            sum(k**i * r[j] for i, r in enumerate(cell.rays))
            for j in range(cell.ambient_rank)
        )
        if not any(member(p, pt) for p in pieces):
            return pt
        k += 1
