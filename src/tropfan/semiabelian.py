"""Split tropical semiabelian varieties over a base cone.

The ambient space is N_σ0 × N × N′ where σ0 is a base cone of rank b,
N has rank g (identified with its dual M by the principal polarization)
and N′ has rank r (the torus factor).  A polarization is a symmetric
bilinear form Q: M×M → M_σ0; the lattice M acts on admissible points by
the shear T_m(n, n′, n″) = (n, n′ + Q_hom,N(m)(n), n″).

Fans here are translation-equivariant: they are stored as one
representative cone per T_m-orbit.
"""

import math
from dataclasses import dataclass
from itertools import product

from . import cones as C
from . import fans as F
from . import lattice as L
from ._linalg import (
    dot,
    integer_kernel,
    is_psd,
    is_zero,
    rational_rank,
    rational_solve,
)


class DefinitenessRequiredError(ValueError):
    pass


class IncompatibleBaseError(ValueError):
    pass


class NormalizationError(ValueError):
    pass


class ConnectivityError(ValueError):
    pass


class ArrangementDegenerateError(ValueError):
    pass


@dataclass(frozen=True)
class PolarizedBase:
    base_cone: F.StackyCone  # σ0 with its lattice, in ambient Z^b
    m_rank: int  # g
    q_matrix: tuple  # g×g tuple of IntVectors of length b
    torus_rank: int  # r

    @property
    def base_rank(self):
        return self.base_cone.ambient_rank

    @property
    def ambient_rank(self):
        return self.base_rank + self.m_rank + self.torus_rank

    def __repr__(self):
        return (
            f"PolarizedBase(b={self.base_rank}, g={self.m_rank}, "
            f"r={self.torus_rank})"
        )


def gram(base, n):
    """The g×g matrix G_n with G_n[i][j] = q[i][j]·n."""
    g = base.m_rank
    return [[dot(base.q_matrix[i][j], n) for j in range(g)] for i in range(g)]


def q_hom(base, m, n):
    """Q_hom,N(m)(n) ∈ Z^g for m ∈ Z^g, n ∈ Z^b."""
    G = gram(base, n)
    g = base.m_rank
    return tuple(sum(m[i] * G[i][j] for i in range(g)) for j in range(g))


def split_point(base, v):
    b, g = base.base_rank, base.m_rank
    return v[:b], v[b : b + g], v[b + g :]


def translate_vector(base, v, m):
    n, nprime, nsecond = split_point(base, v)
    shift = q_hom(base, m, n)
    return tuple(n) + tuple(x + s for x, s in zip(nprime, shift)) + tuple(nsecond)


def validate_form(base):
    """Violations of symmetry and positivity; empty list when valid."""
    out = []
    g, b = base.m_rank, base.base_rank
    if len(base.q_matrix) != g or any(len(row) != g for row in base.q_matrix):
        out.append("q_matrix is not g×g")
        return out
    for i in range(g):
        for j in range(g):
            if len(base.q_matrix[i][j]) != b:
                out.append(f"q_matrix[{i}][{j}] has wrong length")
                return out
            if tuple(base.q_matrix[i][j]) != tuple(base.q_matrix[j][i]):
                out.append(f"q_matrix not symmetric at ({i},{j})")
    out.extend(F.validate_stacky_cone(base.base_cone))
    if out or g == 0:
        return out
    rays = base.base_cone.cone.rays
    if not rays:
        out.append("positivity fails: base cone has no rays but g > 0")
        return out
    stacked = []
    for n in rays:
        G = gram(base, n)
        if not is_psd(G):
            out.append(f"gram matrix at base ray {n} is not positive semidefinite")
        stacked.extend(G)
    if out:
        return out
    kernel = integer_kernel(stacked, g)
    if kernel:
        out.append(
            f"form is degenerate: Q(m,m) vanishes on the base cone for m = "
            f"{kernel[0]}"
        )
    return out


def admissible_point(n, nprime, base):
    """Is (n, n′) in the admissible region (N_σ0 × N)^(M)?"""
    if len(n) != base.base_rank or len(nprime) != base.m_rank:
        raise L.DimensionError("component lengths do not match the base")
    if not C.member(base.base_cone.cone, n):
        return False
    if is_zero(nprime):
        return True
    return _in_row_span(gram(base, n), nprime)


def _in_row_span(G, v):
    """Is v in the rational row span of G?"""
    return rational_rank(G) == rational_rank(G + [list(v)])


def admissible_hom(tau, structure_map, phi, base):
    """Two-sided bounding test for φ: M → M_τ over a cone τ → σ0.

    `tau` is a Cone in its own ambient Z^d, `structure_map` is the b×d
    integer matrix of the map to the base ambient, and `phi` lists the g
    covectors φ(e_i) ∈ M_τ (length d each).  Decided ray by ray: on each
    ray the image covector must lie in the span of the Gram matrix there,
    checked by an exact rank test.
    """
    for ray in tau.rays:
        n = tuple(dot(row, ray) for row in structure_map)
        target = [dot(p, ray) for p in phi]
        if not _in_row_span(gram(base, n), target):
            return False
    return True


def translate(sc, m, base):
    """T_m applied to a StackyCone (rays and lattice basis)."""
    rays = [translate_vector(base, r, m) for r in sc.cone.rays]
    if not rays:
        return sc
    cone = C.from_rays(rays, sc.ambient_rank)
    lat = L.canonicalize(
        [translate_vector(base, bvec, m) for bvec in sc.lattice.basis],
        sc.ambient_rank,
    )
    return F.StackyCone(cone, lat)


def _ray_slope(base, ray):
    """Slope μ ∈ Q^g with G_n μ = n′ for a ray with nonzero base part.

    Raises DefinitenessRequiredError when the slope is not unique and
    ValueError when the ray is not admissible.
    """
    n, nprime, _ = split_point(base, ray)
    G = gram(base, n)
    if integer_kernel(G, base.m_rank):
        raise DefinitenessRequiredError(
            f"gram matrix is singular at base point {n}; slopes are not unique"
        )
    sol = rational_solve(G, list(nprime))
    if sol is None:
        raise ValueError(f"ray {ray} is not admissible over the base")
    return sol


def _slopes(base, sc):
    out = []
    for ray in sc.cone.rays:
        n, nprime, _ = split_point(base, ray)
        if is_zero(n):
            if not is_zero(nprime):
                raise ValueError(f"ray {ray} has zero base part but nonzero N part")
            continue
        out.append(_ray_slope(base, ray))
    return out


def candidate_translations(c1, c2, base):
    """All m ∈ M with c1 ∩ T_m(c2) ≠ {0}, as a sorted tuple.

    Candidates come from the polytope of ray-slope differences (with a
    safety margin) and each is verified by an exact cone intersection.
    Cones fixed pointwise by every translation (all rays have zero base
    part) intersect independently of m; by convention the answer is then
    {0} or {} depending on whether they meet at all.
    """
    g = base.m_rank
    zero = tuple([0] * g)
    if g == 0:
        hit = C.intersect_cones(c1.cone, c2.cone).dim > 0
        return (zero,) if hit else ()
    s1 = _slopes(base, c1)
    s2 = _slopes(base, c2)
    if not s1 or not s2:
        hit = C.intersect_cones(c1.cone, c2.cone).dim > 0
        return (zero,) if hit else ()
    margin = 1
    ranges = []
    for k in range(g):
        lo = min(a[k] for a in s1) - max(b[k] for b in s2)
        hi = max(a[k] for a in s1) - min(b[k] for b in s2)
        ranges.append(range(math.floor(lo) - margin, math.ceil(hi) + margin + 1))
    found = []
    for m in product(*ranges):
        if C.intersect_cones(c1.cone, translate(c2, m, base).cone).dim > 0:
            found.append(m)
    return tuple(sorted(found))


@dataclass(frozen=True)
class AVStackyFan:
    base: PolarizedBase
    representatives: tuple  # tuple of StackyCone in ambient b+g+r

    @property
    def ambient_rank(self):
        return self.base.ambient_rank

    def __repr__(self):
        return (
            f"AVStackyFan({self.base!r}, {len(self.representatives)} "
            f"representative cones)"
        )


def av_fan(base, representatives):
    return AVStackyFan(base, F._sort_stacky(representatives))


def embedded_base_cone(base):
    """σ0 × {0} × {0} with its lattice, in the full ambient."""
    pad = base.m_rank + base.torus_rank
    rays = [tuple(r) + (0,) * pad for r in base.base_cone.cone.rays]
    lat = [tuple(bv) + (0,) * pad for bv in base.base_cone.lattice.basis]
    n = base.ambient_rank
    cone = C.from_rays(rays, n) if rays else C.zero_cone(n)
    return F.StackyCone(cone, L.canonicalize(lat, n))


def _same_stacky(a, b):
    return a.cone.rays == b.cone.rays and a.lattice == b.lattice


def validate_av_fan(fan):
    """Violations of the translation-equivariant fan conditions."""
    base = fan.base
    out = list(validate_form(base))
    if out:
        return ["base form invalid: " + v for v in out]
    n_amb = base.ambient_rank
    reps = list(fan.representatives)
    for sc in reps:
        if sc.ambient_rank != n_amb:
            return [f"representative {sc.cone.rays} has wrong ambient rank"]
        out.extend(F.validate_stacky_cone(sc))
        for ray in sc.cone.rays:
            n, nprime, _ = split_point(base, ray)
            if not C.member(base.base_cone.cone, n):
                out.append(f"ray {ray} has base part outside the base cone")
            elif not admissible_point(n, nprime, base):
                out.append(f"ray {ray} is not an admissible point")
            if is_zero(n) and not is_zero(nprime):
                out.append(f"ray {ray} has zero base part but nonzero N part")
    if out:
        return out
    # (7) the embedded base cone is present.
    bc = embedded_base_cone(base)
    if not any(_same_stacky(sc, bc) for sc in reps):
        out.append("(7): base cone σ0×{0}×{0} is not among the representatives")
    if not any(sc.cone.rays == () for sc in reps):
        out.append("(3): zero cone missing from representatives")
    # (1),(2),(4): all translated pairwise intersections are common faces
    # with matching lattices.
    for i, t1 in enumerate(reps):
        for j, t2 in enumerate(reps):
            if j < i:
                continue
            for m in candidate_translations(t1, t2, base):
                if i == j and is_zero(m):
                    continue
                moved = translate(t2, m, base)
                inter = C.intersect_cones(t1.cone, moved.cone)
                if inter.dim == 0:
                    continue
                if not (
                    C.is_face_of(inter, t1.cone) and C.is_face_of(inter, moved.cone)
                ):
                    out.append(
                        f"(1): {t1.cone.rays} and T_{m}{t2.cone.rays} do not "
                        f"meet along a common face"
                    )
                    continue
                if F._restrict(t1.lattice, inter) != F._restrict(moved.lattice, inter):
                    out.append(
                        f"(4): lattices disagree on the overlap of "
                        f"{t1.cone.rays} and T_{m}{t2.cone.rays}"
                    )
    # (5): τ ∩ T_m τ is pointwise fixed by T_m, i.e. lies in the
    # vanishing locus of x ↦ Q_hom,N(m)(x_base).
    for t in reps:
        for m in candidate_translations(t, t, base):
            if is_zero(m):
                continue
            moved = translate(t, m, base)
            inter = C.intersect_cones(t.cone, moved.cone)
            for x in inter.rays:
                nb, _, _ = split_point(base, x)
                if not is_zero(q_hom(base, m, nb)):
                    out.append(
                        f"(5): {x} in the overlap of {t.cone.rays} with its "
                        f"T_{m}-translate is not fixed: T_{m}{x} = "
                        f"{translate_vector(base, x, m)}"
                    )
    # (3): faces of representatives are translates of representatives.
    for t in reps:
        for f in C.faces(t.cone):
            if f.rays == () or f.rays == t.cone.rays:
                continue
            face_sc = F.induced_stacky_cone(f, t.lattice)
            if _face_orbit_witness(face_sc, reps, base) is None:
                out.append(
                    f"(3): face {f.rays} of {t.cone.rays} is not a translate "
                    f"of any representative"
                )
    return out


def _face_orbit_witness(face_sc, reps, base):
    """(rep, m) with T_m(rep) == face_sc, or None."""
    for rho in reps:
        if rho.dim != face_sc.dim or rho.dim == 0:
            continue
        for m in candidate_translations(face_sc, rho, base):
            if _same_stacky(translate(rho, m, base), face_sc):
                return rho, m
    return None


def _orbit_classes(fan, strict=False):
    """Representatives grouped one per T_m-orbit (canonical order).

    With strict=True, raises NormalizationError when two representatives
    lie in the same orbit.
    """
    base = fan.base
    classes = []
    for sc in F._sort_stacky(fan.representatives):
        duplicate = False
        for other in classes:
            if other.dim != sc.dim:
                continue
            if sc.dim == 0:
                duplicate = True
            else:
                for m in candidate_translations(other, sc, base):
                    if _same_stacky(translate(sc, m, base), other):
                        duplicate = True
                        break
            if duplicate:
                break
        if duplicate:
            if strict:
                raise NormalizationError(
                    f"representatives {other.cone.rays} and {sc.cone.rays} "
                    f"lie in the same translation orbit"
                )
            continue
        classes.append(sc)
    return classes


@dataclass(frozen=True)
class QuotientComplex:
    cells: tuple  # tuple of StackyCone (orbit representatives)
    face_maps: tuple  # tuple of (source index, target index, m)

    def cells_by_dim(self):
        counts = {}
        for c in self.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        return counts

    def __repr__(self):
        return (
            f"QuotientComplex({len(self.cells)} cells, "
            f"{len(self.face_maps)} face maps)"
        )


def quotient_complex(fan):
    """Cone complex of translation-orbit classes with unique face maps."""
    base = fan.base
    cells = _orbit_classes(fan, strict=True)
    face_maps = []
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if i == j or a.dim >= b.dim:
                continue
            if a.dim == 0:
                face_maps.append((i, j, tuple([0] * base.m_rank)))
                continue
            witnesses = []
            for m in candidate_translations(b, a, base):
                moved = translate(a, m, base)
                if C.is_face_of(moved.cone, b.cone) and moved.lattice == F._restrict(
                    b.lattice, moved.cone
                ):
                    witnesses.append(m)
            if len(witnesses) > 1:
                raise AssertionError(
                    f"multiple face morphisms between cells {a.cone.rays} "
                    f"and {b.cone.rays}: {witnesses}"
                )
            if witnesses:
                face_maps.append((i, j, witnesses[0]))
    return QuotientComplex(tuple(cells), tuple(face_maps))


def _relint_base(base, p_base):
    """Is p_base in the relative interior of σ0 (relint of {0} is {0})?"""
    cone = base.base_cone.cone
    if cone.dim == 0:
        return is_zero(p_base)
    return C.contains_point(cone, p_base) == C.RELATIVE_INTERIOR


def av_complete(fan):
    """Does the translation-orbit union of cones cover the admissible region?

    Ridge-pairing on the quotient: every codimension-1 face of a maximal
    cell whose interior lies over the relative interior of σ0 must bound
    exactly two maximal cells, counted with translation multiplicity.
    """
    base = fan.base
    cells = _orbit_classes(fan)
    D = base.base_cone.dim + base.m_rank + base.torus_rank
    if D == 0:
        return True
    tops = [c for c in cells if c.dim == D]
    if not tops:
        return False
    # Every lower cell must appear as a face of some translated top.
    for c in cells:
        if c.dim == D:
            continue
        if c.dim == 0:
            continue
        found = False
        for rho in tops:
            for m in candidate_translations(rho, c, base):
                if C.is_face_of(translate(c, m, base).cone, rho.cone):
                    found = True
                    break
            if found:
                break
        if not found:
            return False
    # Ridge pairing with translation multiplicity.
    adjacency = {i: set() for i in range(len(tops))}
    for ti, top in enumerate(tops):
        for ridge in C.facets(top.cone):
            p = C.interior_point(ridge)
            if not _relint_base(base, split_point(base, p)[0]):
                continue
            ridge_sc = F.induced_stacky_cone(ridge, top.lattice)
            count = 0
            for rj, rho in enumerate(tops):
                for m in candidate_translations(ridge_sc, rho, base):
                    if C.is_face_of(ridge, translate(rho, m, base).cone):
                        count += 1
                        adjacency[ti].add(rj)
            if count != 2:
                return False
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(tops)


def _maximal_classes(cells, base):
    out = []
    for c in cells:
        is_max = True
        for rho in cells:
            if rho.dim <= c.dim:
                continue
            if c.dim == 0:
                is_max = False
                break
            for m in candidate_translations(c, rho, base):
                if C.contains_cone(translate(rho, m, base).cone, c.cone):
                    is_max = False
                    break
            if not is_max:
                break
        if is_max:
            out.append(c)
    return out


def av_minimal(fan):
    """Greedy coarsening: merge orbit-adjacent cells with equal lattices.

    A merge is kept only when the merged fan still validates (in
    particular the pointwise-fixedness condition survives), which keeps
    the coarsening translation-equivariant.
    """
    base = fan.base
    cells = _maximal_classes(_orbit_classes(fan), base)
    changed = True
    while changed:
        changed = False
        for i in range(len(cells)):
            for j in range(len(cells)):
                merged = None
                if cells[i].dim != cells[j].dim or cells[i].dim == 0:
                    continue
                for m in candidate_translations(cells[i], cells[j], base):
                    if i == j and is_zero(m):
                        continue
                    merged = F.merge_across_wall(cells[i], translate(cells[j], m, base))
                    if merged is not None:
                        break
                if merged is None:
                    continue
                new_cells = [
                    c for k, c in enumerate(cells) if k not in (i, j)
                ] + [merged]
                candidate = _rebuild(base, new_cells)
                if not validate_av_fan(candidate):
                    cells = _maximal_classes(_orbit_classes(candidate), base)
                    changed = True
                    break
            if changed:
                break
    return _rebuild(base, cells)


def _rebuild(base, cells):
    """Fan from maximal cells: add face orbits and the zero cone."""
    reps = list(cells)
    seen_zero = any(c.dim == 0 for c in reps)
    if not seen_zero:
        n = base.ambient_rank
        reps.append(F.StackyCone(C.zero_cone(n), L.zero_lattice(n)))
    fan = AVStackyFan(base, F._sort_stacky(reps))
    classes = _orbit_classes(fan)
    extra = []
    for c in classes:
        for f in C.faces(c.cone):
            if f.rays == () or f.rays == c.cone.rays:
                continue
            face_sc = F.induced_stacky_cone(f, c.lattice)
            if _face_orbit_witness(face_sc, classes + extra, base) is None:
                extra.append(face_sc)
    return av_fan(base, classes + extra)


def av_bir_equivalent(f1, f2):
    """Equality of S-sets of two fans over the same base, up to translation."""
    if f1.base != f2.base:
        raise IncompatibleBaseError("fans are defined over different bases")
    base = f1.base
    m1 = _maximal_classes(_orbit_classes(f1), base)
    m2 = _maximal_classes(_orbit_classes(f2), base)
    return _av_covers(m1, m2, base) and _av_covers(m2, m1, base)


def _av_covers(pieces1, pieces2, base):
    for t1 in pieces1:
        translates = []
        for rho in pieces2:
            for m in candidate_translations(t1, rho, base):
                translates.append(translate(rho, m, base))
        if not C.cone_covered_by(t1.cone, [t.cone for t in translates]):
            return False
        for t in translates:
            cell = C.intersect_cones(t1.cone, t.cone)
            if cell.dim == 0:
                continue
            if F._restrict(t1.lattice, cell) != F._restrict(t.lattice, cell):
                return False
    return True


def arrangement_fan_cones(normals, rank):
    """Full-dimensional cells of the central arrangement {x·h = 0}."""
    cells = C.arrangement_cells(list(normals), rank)
    # Merge cells not separated by an arrangement hyperplane: group by the
    # sign vector of an interior point.
    groups = {}
    for cell in cells:
        if cell.dim != rank:
            continue
        p = C.interior_point(cell)
        sig = tuple(0 if dot(h, p) == 0 else (1 if dot(h, p) > 0 else -1) for h in normals)
        groups.setdefault(sig, []).append(cell)
    out = []
    for group in groups.values():
        rays = []
        for cell in group:
            rays.extend(cell.rays)
        out.append(C.from_rays(rays, rank))
    return sorted(out, key=lambda c: c.rays)


def reference_subdivision(symmetry_vectors, torus_rank):
    """Complete fan on the torus factor cut by symmetry hyperplanes."""
    if torus_rank == 0:
        return F.fan_from_maximal([], 0)
    vectors = [tuple(v) for v in symmetry_vectors]
    if rational_rank(vectors) < torus_rank:
        raise ArrangementDegenerateError(
            "symmetry vectors do not span the torus factor"
        )
    cells = arrangement_fan_cones(vectors, torus_rank)
    full = L.full_lattice(torus_rank)
    return F.fan_from_maximal(
        [F.StackyCone(c, full) for c in cells], torus_rank
    )


def join_with_barycenter(cone, boundary_cones):
    """Subdivide a cone by joining boundary cells with its barycenter ray.

    `boundary_cones` should subdivide the boundary of `cone`; the result
    lists the maximal cells of the joined subdivision.
    """
    bary = C.interior_point(cone)
    out = []
    for b in boundary_cones:
        out.append(C.from_rays(list(b.rays) + [bary], cone.ambient_rank))
    return sorted(out, key=lambda c: c.rays)


def jacobian_form(num_vertices, edges, base_cone, torus_rank=0):
    """Polarization of the tropical Jacobian of a metrized multigraph.

    `edges` is a list of (u, v, length) with u, v vertex indices and
    length an integer covector over the base.  The cycle basis consists
    of the fundamental cycles of the spanning tree formed by greedily
    taking edges in input order.
    """
    b = base_cone.ambient_rank
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    chords = []
    for idx, (u, v, _) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
        else:
            chords.append(idx)
    if len({find(x) for x in range(num_vertices)}) != 1:
        raise ConnectivityError("graph is not connected")
    g = len(chords)
    # Fundamental cycle of each chord: chord + tree path back.
    adjacency = {v: [] for v in range(num_vertices)}
    for idx in tree:
        u, v, _ = edges[idx]
        adjacency[u].append((v, idx, 1))
        adjacency[v].append((u, idx, -1))

    def tree_path(u, v):
        """Edge coefficients of the tree path u -> v."""
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, idx, sgn in adjacency[x]:
                if y not in prev:
                    prev[y] = (x, idx, sgn)
                    stack.append(y)
        coeffs = {}
        x = v
        while prev[x] is not None:
            px, idx, sgn = prev[x]
            coeffs[idx] = sgn
            x = px
        return coeffs

    cycles = []
    for idx in chords:
        u, v, _ = edges[idx]
        coeffs = tree_path(v, u)
        coeffs[idx] = 1
        cycles.append(coeffs)
    q = []
    for ci in cycles:
        row = []
        for cj in cycles:
            total = [0] * b
            for idx, a in ci.items():
                c = cj.get(idx, 0)
                if c:
                    length = edges[idx][2]
                    total = [t + a * c * x for t, x in zip(total, length)]
            row.append(tuple(total))
        q.append(tuple(row))
    return PolarizedBase(base_cone, g, tuple(q), torus_rank)


def congruent_by(q1, q2, u):
    """Does uᵀ · Q1 · u == Q2 entrywise (entries are covectors)?"""
    g = len(q1)
    for a in range(g):
        for c in range(g):
            b_len = len(q2[a][c]) if g else 0
            total = [0] * b_len
            for i in range(g):
                for j in range(g):
                    f = u[i][a] * u[j][c]
                    if f:
                        total = [t + f * x for t, x in zip(total, q1[i][j])]
            if tuple(total) != tuple(q2[a][c]):
                return False
    return True
