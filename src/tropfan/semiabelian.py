"""Split tropical semiabelian varieties over a base cone.

The ambient space is N_σ0 × N × N′ where σ0 is a base cone of rank b,
N has rank g (identified with its dual M by the principal polarization)
and N′ has rank r (the torus factor).  A polarization is a symmetric
bilinear form Q: M×M → M_σ0; the lattice M acts on admissible points by
the shear T_m(n, n′, n″) = (n, n′ + Q_hom,N(m)(n), n″).

T_m is the block matrix [[I, 0, 0], [A_m, I, 0], [0, 0, I]], where the
g×b block A_m (`shear_block`) has A_m[j][k] = Σᵢ mᵢ·q[i][j][k].  It is
unimodular with inverse T_{−m}, so `translate` maps a cone's rays, span
basis and lattice basis by T_m, and pulls each facet normal back by
T_{−m}ᵀ.  On a lower-dimensional cone the pulled-back normal is only one
ambient lift of the facet functional; it is re-lifted from the span so
that it equals the normal `cones.from_rays` would give.

Fans here are translation-equivariant: they are stored as one
representative cone per T_m-orbit.  Orbit identity is decided by a
normal form (`_orbit_form`), not by a search over translations;
`candidate_translations` answers only which translates meet.  It builds
no translated cone: pulled back by T_m, each functional of one cone is
affine in m at each ray of the other, and the m to test come from the
ranges of integer ray slopes (adj(G_n)·n′ / det G_n, fraction-free).
"""

import math
from dataclasses import dataclass
from itertools import product

from . import cones as C
from . import fans as F
from . import lattice as L
from ._linalg import (
    adjugate_solve,
    det,
    dot,
    hnf,
    integer_kernel,
    is_psd,
    is_zero,
    primitive,
    rational_rank,
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


def shear_block(base, m):
    """The g×b block A_m of T_m, A_m[j][k] = Σᵢ mᵢ·q[i][j][k].

    Row j of A_m is the covector Q_hom,N(m)_j, so A_m n = Q_hom,N(m)(n).
    """
    g, b = base.m_rank, base.base_rank
    q = base.q_matrix
    return [
        [sum(m[i] * q[i][j][k] for i in range(g)) for k in range(b)] for j in range(g)
    ]


def q_hom(base, m, n):
    """Q_hom,N(m)(n) ∈ Z^g for m ∈ Z^g, n ∈ Z^b."""
    return tuple(dot(row, n) for row in shear_block(base, m))


def split_point(base, v):
    b, g = base.base_rank, base.m_rank
    return v[:b], v[b : b + g], v[b + g :]


def _shear(A, b, v):
    """T_m v = (n, n′ + A_m n, n″) for the shear block A = A_m."""
    n = v[:b]
    return (
        tuple(n)
        + tuple(x + dot(row, n) for x, row in zip(v[b:], A))
        + tuple(v[b + len(A) :])
    )


def translate_vector(base, v, m):
    return _shear(shear_block(base, m), base.base_rank, v)


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


def _pull_back(A, b, h):
    """T_{−m}ᵀ h, the functional h ∘ T_{−m}: (h_n − A_mᵀ h_n′, h_n′, h_n″)."""
    hp = h[b : b + len(A)]
    return tuple(
        x - sum(row[k] * y for row, y in zip(A, hp)) for k, x in enumerate(h[:b])
    ) + tuple(h[b:])


def _shear_cone(cone, A, b):
    """T_m(cone) for the shear block A = A_m, as `translate` describes.

    T_m is unimodular, so mapped rays stay primitive and extreme, and the
    mapped saturated span basis spans the saturated span.
    """
    n = cone.ambient_rank
    rays = tuple(sorted(_shear(A, b, r) for r in cone.rays))
    normals = [_pull_back(A, b, h) for h in cone.facet_normals]
    if cone.dim == n:
        return C.Cone(n, rays, cone.span_basis, tuple(sorted(normals)))
    span = hnf([_shear(A, b, s) for s in cone.span_basis], n)
    values = [primitive([dot(s, h) for s in span]) for h in normals]
    lifted = [primitive(y) for y in C._lift_functionals(span, values, n)]
    return C.Cone(n, rays, tuple(span), tuple(sorted(lifted)))


def translate(sc, m, base):
    """T_m applied to a StackyCone: rays, span basis, facet normals, lattice.

    T_m is the block matrix [[I, 0, 0], [A_m, I, 0], [0, 0, I]] on
    N_σ0 × N × N′ (see `shear_block`).  It is unimodular with inverse
    T_{−m}, so rays are mapped and re-sorted, the span basis and the
    lattice basis are mapped and put back in HNF, and each facet normal
    is pulled back by T_{−m}ᵀ.  Normals of a lower-dimensional cone are
    re-lifted from the span so that they equal those of `from_rays` on
    the mapped rays.
    """
    if not sc.cone.rays:
        return sc
    A, b = shear_block(base, m), base.base_rank
    lat = L.canonicalize([_shear(A, b, v) for v in sc.lattice.basis], sc.ambient_rank)
    return F.StackyCone(_shear_cone(sc.cone, A, b), lat)


def _ray_slope(base, ray, G):
    """Slope of a ray (n, n′, n″) with n ≠ 0 and Gram matrix G = G_n, as
    (v, d) with d > 0 and G v = d·n′, so μ = v/d.

    (v, d) is ±(adj(G)·n′, det G), from fraction-free elimination.
    Raises DefinitenessRequiredError when G is singular.
    """
    n, nprime, _ = split_point(base, ray)
    sol = adjugate_solve(G, nprime)
    if sol is None:
        raise DefinitenessRequiredError(
            f"gram matrix is singular at base point {n}; slopes are not unique"
        )
    v, d = sol
    return (v, d) if d > 0 else (tuple(-x for x in v), -d)


def _ray_data(base, sc):
    """(G_n, slope) for each ray (n, n′, n″) of sc; the slope is None when
    n = 0, which requires n′ = 0."""
    out = []
    for ray in sc.cone.rays:
        n, nprime, _ = split_point(base, ray)
        G = gram(base, n)
        if not is_zero(n):
            out.append((G, _ray_slope(base, ray, G)))
        elif is_zero(nprime):
            out.append((G, None))
        else:
            raise ValueError(f"ray {ray} has zero base part but nonzero N part")
    return out


def _over_common_denominator(slopes):
    """(rows, D): the slopes as integer rows over one denominator D > 0."""
    D = 1
    for _, d in slopes:
        D = D * d // math.gcd(D, d)
    return [tuple(x * (D // d) for x in v) for v, d in slopes], D


def _proportional(grams):
    """Are the matrices positive multiples of the first one?"""
    first = [x for row in grams[0] for x in row]
    p = next(i for i, x in enumerate(first) if x)
    for G in grams[1:]:
        flat = [x for row in G for x in row]
        if flat[p] * first[p] <= 0 or any(
            x * first[p] != y * flat[p] for x, y in zip(flat, first)
        ):
            return False
    return True


def _slope_radius(grams, rows, D):
    """An integer t ≥ |μ(x) − c| for the slopes μ(x) of the points x of a
    cone whose rays with nonzero base part have Gram matrices `grams` and
    slopes rows/D; c is the centre of the slopes' bounding box.

    μ(x) = (Σλ_i G_i)⁻¹ Σλ_i G_i μ_i is a matrix-weighted mean of the ray
    slopes μ_i (Chamberlain–Leamer 1976).  With R = maxᵢ |μ_i − c|, it
    lies within R·√κ of c, κ = maxᵢ λmax(G_i)/λmin(G_i), and κ = 1 when
    the G_i are positive multiples of one matrix.  Otherwise κ ≤
    maxᵢ tr(G_i)^g / det(G_i) for positive definite G_i.  Squares are
    compared, so t is exact: the least integer with t² ≥ R²·κ.
    """
    kappa_num, kappa_den = 1, 1
    if not _proportional(grams):
        for G in grams:
            g, dt = len(G), det(G)
            if dt <= 0 or not is_psd(G):
                raise DefinitenessRequiredError(
                    f"gram matrix {G} is not positive definite; translates "
                    f"cannot be bounded"
                )
            tr = sum(G[i][i] for i in range(g))
            if tr**g * kappa_den > kappa_num * dt:
                kappa_num, kappa_den = tr**g, dt
    centre = [min(col) + max(col) for col in zip(*rows)]  # 2D·c
    r2 = max(sum((2 * x - y) ** 2 for x, y in zip(row, centre)) for row in rows)
    # t² ≥ R²·κ with R² = r2 / (2D)².
    num, den = r2 * kappa_num, 4 * D * D * kappa_den
    t = math.isqrt(num // den)
    while t * t * den < num:
        t += 1
    return t


def _translation_box(data1, data2):
    """Ranges per coordinate of M that hold every m with c1 ∩ T_m(c2) ≠ {0},
    from the `_ray_data` of c1 and c2; both have a ray with nonzero base part.

    T_m adds m to slopes, so such an m is μ(x) − μ(y) for points x ∈ c1
    and y = T_{−m}x ∈ c2.  When every ray of both cones has nonzero base
    part and, within each cone, the ray Grams are positive multiples of
    one matrix (always so at g = 1 or b = 1), a point's slope is a convex
    combination of its cone's ray slopes, and m ranges exactly over the
    differences of the slope ranges.  Otherwise the ranges get a margin
    of 1, widened by `_slope_radius` when some cone's Grams are not
    proportional.
    """
    grams1 = [G for G, mu in data1 if mu]
    grams2 = [G for G, mu in data2 if mu]
    rows1, D1 = _over_common_denominator([mu for _, mu in data1 if mu])
    rows2, D2 = _over_common_denominator([mu for _, mu in data2 if mu])
    den = D1 * D2
    lo = [min(a) * D2 - max(b) * D1 for a, b in zip(zip(*rows1), zip(*rows2))]
    hi = [max(a) * D2 - min(b) * D1 for a, b in zip(zip(*rows1), zip(*rows2))]
    if _proportional(grams1) and _proportional(grams2):
        if len(grams1) == len(data1) and len(grams2) == len(data2):
            return [range(-(-x // den), y // den + 1) for x, y in zip(lo, hi)]
        margin = 1
    else:
        t = _slope_radius(grams1, rows1, D1) + _slope_radius(grams2, rows2, D2)
        margin = max(1, t)
    return [range(x // den - margin, -(-y // den) + margin + 1) for x, y in zip(lo, hi)]


def _meets(columns, n_eq):
    """Is there λ ≥ 0, λ ≠ 0, with Σ λ_r columns[r][i] = 0 for i < n_eq
    and ≥ 0 for the other i?

    columns[r] holds the values of the pulled-back functionals at ray r
    of c1; c1 is pointed, so λ ≠ 0 iff Σ λ_r r ≠ 0.  First the quick
    tests: a row negative on every ray, or an equation row of one strict
    sign, rejects; a ray zero on the equations and ≥ 0 on the rest
    accepts.  Otherwise the orthant of λ is cut row by row by the
    double-description step of `cones.halfspace_slice`, with each extreme
    ray kept as its values and its zero set: the orthant's facets are
    0..R−1 and row i is facet R + i.
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
    zeros = [frozenset(range(R)) - {r} for r in range(R)]
    vecs = columns
    for i in range(len(rows)):
        vals = [v[i] for v in vecs]
        keep = [k for k, x in enumerate(vals) if x == 0 or (x > 0 and i >= n_eq)]
        pairs = C._dd_pairs(vals, zeros, vecs)
        zeros = [zeros[k] | {R + i} if vals[k] == 0 else zeros[k] for k in keep] + [
            zeros[p] & zeros[q] | {R + i} for p, q, _ in pairs
        ]
        vecs = [vecs[k] for k in keep] + [v for _, _, v in pairs]
        if not vecs:
            return False
    return True


def candidate_translations(c1, c2, base):
    """All m ∈ M with c1 ∩ T_m(c2) ≠ {0}, as a sorted tuple.

    No translated cone is built.  A functional f of c2 (a span equation
    or a facet normal) pulled back by T_m takes the value
    ⟨f, T_{−m} r⟩ = ⟨f, r⟩ − m·(G_n f_N) at a ray r = (n, n′, n″) of c1,
    where f_N is f's N-part.  These affine forms are tabulated once per
    call; each m of `_translation_box` is then decided by `_meets` on
    their values.  Cones fixed pointwise by every translation (all rays
    have zero base part) intersect independently of m; by convention the
    answer is then {0} or {} depending on whether they meet at all.
    """
    g = base.m_rank
    zero = tuple([0] * g)
    if g == 0:
        hit = C.intersect_cones(c1.cone, c2.cone).dim > 0
        return (zero,) if hit else ()
    data1, data2 = _ray_data(base, c1), _ray_data(base, c2)
    if not any(mu for _, mu in data1) or not any(mu for _, mu in data2):
        hit = C.intersect_cones(c1.cone, c2.cone).dim > 0
        return (zero,) if hit else ()
    n, b = base.ambient_rank, base.base_rank
    eqs = integer_kernel(c2.cone.span_basis, n) if c2.dim < n else []
    functionals = eqs + list(c2.cone.facet_normals)
    forms = [
        [(dot(f, r), [dot(row, f[b : b + g]) for row in G]) for f in functionals]
        for r, (G, _) in zip(c1.cone.rays, data1)
    ]
    found = []
    for m in product(*_translation_box(data1, data2)):
        columns = [[c - dot(m, w) for c, w in col] for col in forms]
        if _meets(columns, len(eqs)):
            found.append(m)
    return tuple(found)


def _orbit_form(sc, base):
    """(form, shift): the least of sc's candidate translates T_shift(sc).

    The candidate shifts are −⌊μ⌋, componentwise, for the slopes μ of the
    rays with nonzero base part; translates are ordered by (rays, lattice
    basis).  Slopes of T_d(sc) are those of sc plus d, so T_d(sc) has the
    same candidates and the same least one.  Hence a and b share an orbit
    iff their forms are equal, and then T_{s_a − s_b}(a) = b, the only such
    m when a has a ray with nonzero base part (G_n is nonsingular there).
    Other cones, and all cones when g = 0, are their own form with shift 0.
    """
    zero = tuple([0] * base.m_rank)
    if base.m_rank == 0:
        return sc, zero
    shifts = {
        tuple(-(x // mu[1]) for x in mu[0]) for _, mu in _ray_data(base, sc) if mu
    }
    if not shifts:
        return sc, zero
    return min(
        ((translate(sc, s, base), s) for s in shifts),
        key=lambda pair: (pair[0].cone.rays, pair[0].lattice.basis),
    )


def _orbit_forms(base):
    """`_orbit_form` over one base, computed once per (rays, lattice).

    Each public entry point makes its own, so the memo lives only as long
    as one call.
    """
    memo = {}

    def form(sc):
        key = (sc.cone.rays, sc.lattice.basis)
        if key not in memo:
            memo[key] = _orbit_form(sc, base)
        return memo[key]

    return form


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


def validate_av_fan(fan):
    """Violations of the translation-equivariant fan conditions."""
    return _av_violations(fan, _orbit_forms(fan.base))


def _av_violations(fan, form):
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
    if not any(sc == bc for sc in reps):
        out.append("(7): base cone σ0×{0}×{0} is not among the representatives")
    if not any(sc.cone.rays == () for sc in reps):
        out.append("(3): zero cone missing from representatives")
    # (1),(2),(4): all translated pairwise intersections are common faces
    # with matching lattices.  (5): τ ∩ T_m τ is pointwise fixed by T_m,
    # i.e. lies in the vanishing locus of x ↦ Q_hom,N(m)(x_base); its
    # lines follow those of (1) and (4).
    unfixed = []
    for i, t1 in enumerate(reps):
        for j, t2 in enumerate(reps):
            if j < i:
                continue
            for m in candidate_translations(t1, t2, base):
                if i == j and is_zero(m):
                    continue
                moved = translate(t2, m, base)
                inter = C.intersect_cones(t1.cone, moved.cone)
                if i == j:
                    for x in inter.rays:
                        nb, _, _ = split_point(base, x)
                        if not is_zero(q_hom(base, m, nb)):
                            unfixed.append(
                                f"(5): {x} in the overlap of {t1.cone.rays} with "
                                f"its T_{m}-translate is not fixed: T_{m}{x} = "
                                f"{translate_vector(base, x, m)}"
                            )
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
    out.extend(unfixed)
    # (3): faces of representatives are translates of representatives.
    forms = {form(t)[0] for t in reps}
    for t in reps:
        for f in C.faces(t.cone):
            if f.rays == () or f.rays == t.cone.rays:
                continue
            face_sc = F.induced_stacky_cone(f, t.lattice)
            if form(face_sc)[0] not in forms:
                out.append(
                    f"(3): face {f.rays} of {t.cone.rays} is not a translate "
                    f"of any representative"
                )
    return out


def _orbit_classes(fan, strict=False, form=None):
    """Representatives grouped one per T_m-orbit (canonical order).

    Cones are keyed by orbit form (`form`, by default a fresh
    `_orbit_forms`) and zero cones share one key.  With strict=True,
    raises NormalizationError when two representatives lie in the same
    orbit.
    """
    form = form or _orbit_forms(fan.base)
    classes = {}
    for sc in F._sort_stacky(fan.representatives):
        key = None if sc.dim == 0 else form(sc)[0]
        if key not in classes:
            classes[key] = sc
        elif strict:
            raise NormalizationError(
                f"representatives {classes[key].cone.rays} and {sc.cone.rays} "
                f"lie in the same translation orbit"
            )
    return list(classes.values())


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
    form = _orbit_forms(base)
    cells = _orbit_classes(fan, strict=True, form=form)
    forms = [form(c) for c in cells]
    face_forms = [
        [form(F.induced_stacky_cone(f, b.lattice)) for f in C.faces(b.cone)]
        for b in cells
    ]
    face_maps = []
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if i == j or a.dim >= b.dim:
                continue
            if a.dim == 0:
                face_maps.append((i, j, tuple([0] * base.m_rank)))
                continue
            # T_m(a) is the face f of b exactly when m = s_a − s_f.
            form_a, s_a = forms[i]
            witnesses = sorted(
                tuple(x - y for x, y in zip(s_a, s_f))
                for form_f, s_f in face_forms[j]
                if form_f == form_a
            )
            if len(witnesses) > 1:
                raise NormalizationError(
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
    orbit_form = _orbit_forms(base)
    cells = _orbit_classes(fan, form=orbit_form)
    D = base.base_cone.dim + base.m_rank + base.torus_rank
    if D == 0:
        return True
    tops = [c for c in cells if c.dim == D]
    if not tops:
        return False

    def form(cone):
        # Cones are compared without lattices: each carries its span lattice.
        return orbit_form(F.StackyCone(cone, F.span_lattice(cone)))[0]

    # The tops owning each face orbit, once per face of a top.
    owners = {}
    for ti, top in enumerate(tops):
        for f in C.faces(top.cone):
            owners.setdefault(form(f), []).append(ti)
    # Every lower cell must appear as a face of some translated top.
    if any(form(c.cone) not in owners for c in cells if c.dim not in (0, D)):
        return False
    # Ridge pairing with translation multiplicity.
    adjacency = {i: set() for i in range(len(tops))}
    for ti, top in enumerate(tops):
        for ridge in C.facets(top.cone):
            p = C.interior_point(ridge)
            if not _relint_base(base, split_point(base, p)[0]):
                continue
            paired = owners[form(ridge)]
            if len(paired) != 2:
                return False
            adjacency[ti].update(paired)
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
    form = _orbit_forms(base)
    cells = _maximal_classes(_orbit_classes(fan, form=form), base)
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
                candidate = _rebuild(base, new_cells, form)
                if not _av_violations(candidate, form):
                    cells = _maximal_classes(_orbit_classes(candidate, form=form), base)
                    changed = True
                    break
            if changed:
                break
    return _rebuild(base, cells, form)


def _rebuild(base, cells, form):
    """Fan from maximal cells: add face orbits and the zero cone."""
    reps = list(cells)
    seen_zero = any(c.dim == 0 for c in reps)
    if not seen_zero:
        n = base.ambient_rank
        reps.append(F.StackyCone(C.zero_cone(n), L.zero_lattice(n)))
    fan = AVStackyFan(base, F._sort_stacky(reps))
    classes = _orbit_classes(fan, form=form)
    orbits = {form(c)[0]: c for c in classes}
    for c in classes:
        for f in C.faces(c.cone):
            if f.rays != () and f.rays != c.cone.rays:
                face_sc = F.induced_stacky_cone(f, c.lattice)
                orbits.setdefault(form(face_sc)[0], face_sc)
    return av_fan(base, list(orbits.values()))


def av_bir_equivalent(f1, f2):
    """Equality of S-sets of two fans over the same base, up to translation."""
    if f1.base != f2.base:
        raise IncompatibleBaseError("fans are defined over different bases")
    base = f1.base
    form = _orbit_forms(base)
    m1 = _maximal_classes(_orbit_classes(f1, form=form), base)
    m2 = _maximal_classes(_orbit_classes(f2, form=form), base)
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
