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
ambient lift of the facet functional; `cones.canonical_normals` re-lifts
it from the span so that it equals the normal `cones.from_rays` would
give.

Fans here are translation-equivariant: they are stored as one
representative cone per T_m-orbit.  Orbit identity is decided by a
normal form (`_OrbitForms.of`), not by a search over translations: a key
of sheared rays and one sheared lattice basis, or None for a span
lattice, which the rays already fix.  `candidate_translations`
answers only which translates meet: pulled back by T_m, each functional
of one cone is affine in m at each ray of the other, and the m to test
come from the ranges of integer ray slopes (adj(G_n)·n′ / det G_n,
fraction-free).  The validity, completeness and quotient checks build no
cone for their decisions (`validate_av_fan` builds only the embedded
base cone of check (7)):
- An orbit form reads only rays and a lattice, so the forms of faces
  come from `cones.face_walk` (each face's rays and span basis); only an
  unsaturated lattice is restricted to a face's span.
- An overlap c1 ∩ T_m(c2) is read from one `cones.cut_pass` of c1 by
  c2's functionals pulled back by T_{−m}: its rays, and the functionals
  tight on all of them, decide whether it is a face of each cone; only
  an unsaturated lattice needs the span of its rays.  A test for any
  fault stops at the first.
- Containment tests move rays back by T_{−m} (`_OrbitForms.inside`).
Translated cones are built only for the wall merges of `av_minimal` and
the covers of `av_bir_equivalent`, which need whole cones: a cover
builds them only when no single translate holds a piece or when its
lattices must be compared.
Each public call keeps one table (`_OrbitForms`) that works out each
ray's Gram and slope, slope rows and boxes, orbit forms, each cell's
face orbits, shear blocks and the embedded base cone once.  Every
translation decision reads its face orbits and tops: check (3), the
maximal classes, the face closure of `av_minimal`, the face maps of
`quotient_complex` and the ridges of `av_complete`.
`candidate_translations` and `translate` make a table for one call.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from ._linalg import (
    adjugate_solve,
    det,
    dot,
    hnf,
    integer_kernel,
    is_psd,
    is_zero,
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

    def __post_init__(self):
        g, b, q = self.m_rank, self.base_rank, self.q_matrix
        if len(q) != g or any(len(row) != g or any(len(v) != b for v in row) for row in q):
            raise L.DimensionError(f"q_matrix is not {g} × {g} vectors of length {b}")

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
    """T_m v = (n, n′ + A_m n, n″) for the shear block A = A_m.

    T_m keeps the lexicographic order of vectors: it keeps the base part n,
    and adds the same A_m n to the N part of vectors with equal base part.
    So sorted rays stay sorted.
    """
    n = v[:b]
    return (
        tuple(n)
        + tuple(x + dot(row, n) for x, row in zip(v[b:], A))
        + tuple(v[b + len(A) :])
    )


def validate_form(base):
    """Violations of symmetry and positivity; empty list when valid.  The
    shape of the q_matrix is not among them: `PolarizedBase` refuses a
    q_matrix that is not g × g vectors of length b."""
    g, q = base.m_rank, base.q_matrix
    out = [
        f"q_matrix not symmetric at ({i},{j})"
        for i, j in product(range(g), repeat=2)
        if tuple(q[i][j]) != tuple(q[j][i])
    ]
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
    span = cone.span_basis
    if cone.dim < n:
        span = tuple(hnf([_shear(A, b, s) for s in span], n))
    return C.Cone(n, rays, span, C.canonical_normals(span, normals, n))


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
    return _OrbitForms(base).translate(sc, m)


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


def _ray_data(base, ray):
    """(G_n, slope) of a ray (n, n′, n″); the slope is None when n = 0,
    which requires n′ = 0."""
    n, nprime, _ = split_point(base, ray)
    G = gram(base, n)
    if not is_zero(n):
        return G, _ray_slope(base, ray, G)
    if is_zero(nprime):
        return G, None
    raise ValueError(f"ray {ray} has zero base part but nonzero N part")


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


class _Slopes:
    """The slopes of a ray tuple as the scans (`_OrbitForms.candidates`
    and `_translation_box`) read them, from each ray's `_ray_data`: every
    ray's Gram matrix (`grams`); the slopes of the rays with nonzero base
    part as integer `rows` over one denominator `D` > 0, with their column
    minima `lo` and maxima `hi`; whether those rays' Grams are positive
    multiples of one matrix (`proportional`, false when there are none);
    and whether every ray has a nonzero base part (`all_moving`).  All of
    these are worked out at once, since every box reads them; only
    `radius` (the `_slope_radius` of the rows), which can raise
    `DefinitenessRequiredError` and which only a box over Grams that are
    not proportional reads, waits for the first scan that reads it."""

    def __init__(self, data):
        self.grams = [G for G, _ in data]
        moving = [(G, mu) for G, mu in data if mu]
        self.moving_grams = [G for G, _ in moving]
        self.rows, self.D = _over_common_denominator([mu for _, mu in moving])
        self.lo = [min(col) for col in zip(*self.rows)]
        self.hi = [max(col) for col in zip(*self.rows)]
        self.proportional = bool(moving) and _proportional(self.moving_grams)
        self.all_moving = len(moving) == len(data)

    @cached_property
    def radius(self):
        return _slope_radius(self.moving_grams, self.rows, self.D)


def _translation_box(s1, s2):
    """Ranges per coordinate of M that hold every m with c1 ∩ T_m(c2) ≠ {0},
    from the `_Slopes` of c1 and c2; both have a ray with nonzero base part.

    T_m adds m to slopes, so such an m is μ(x) − μ(y) for points x ∈ c1
    and y = T_{−m}x ∈ c2.  When every ray of both cones has nonzero base
    part and, within each cone, the ray Grams are positive multiples of
    one matrix (always so at g = 1 or b = 1), a point's slope is a convex
    combination of its cone's ray slopes, and m ranges exactly over the
    differences of the slope ranges.  Otherwise the ranges get a margin
    of 1, widened by `_slope_radius` when some cone's Grams are not
    proportional.
    """
    D1, D2 = s1.D, s2.D
    den = D1 * D2
    lo = [a * D2 - b * D1 for a, b in zip(s1.lo, s2.hi)]
    hi = [a * D2 - b * D1 for a, b in zip(s1.hi, s2.lo)]
    if s1.proportional and s2.proportional:
        if s1.all_moving and s2.all_moving:
            return [range(-(-x // den), y // den + 1) for x, y in zip(lo, hi)]
        margin = 1
    else:
        margin = max(1, s1.radius + s2.radius)
    return [range(x // den - margin, -(-y // den) + margin + 1) for x, y in zip(lo, hi)]


def candidate_translations(c1, c2, base):
    """All m ∈ M with c1 ∩ T_m(c2) ≠ {0}, as a sorted tuple.

    No translated cone is built.  A functional f of c2 (a span equation
    or a facet normal) pulled back by T_m takes the value
    ⟨f, T_{−m} r⟩ = ⟨f, r⟩ − m·(G_n f_N) at a ray r = (n, n′, n″) of c1,
    where f_N is f's N-part.  These affine forms are tabulated once per
    call; each m of `_translation_box` is then decided by
    `cones.orthant_cut_is_nonzero` on their values: c1 is pointed, so a
    nonzero λ ≥ 0 gives a nonzero point Σ λ_r r of c1.  Cones fixed
    pointwise by every translation (all rays have zero base part)
    intersect independently of m; by convention the answer is then {0}
    or {} depending on whether they meet at all.
    """
    return _OrbitForms(base).candidates(c1, c2)


class _OrbitForms:
    """What the translation decisions read over one base, each entry
    worked out once:
    - per ray, its `_ray_data` (G_n and slope), from whose slope μ the
      orbit form reads the ray's candidate shift −⌊μ⌋ (`_shift`);
    - per ray tuple, its `_Slopes` (`slopes`; no slopes when g = 0),
      which every scan through `candidates` reads;
    - per (rays, lattice), the orbit form: calling the table on a
      StackyCone, or `of` on rays, a lattice and their span basis;
    - per (rays, lattice) of a cell, its proper nonzero faces with their
      lattices and orbit forms (`faces`), and so the tops (`tops`);
    - per m, the shear block A_m (`block`), which the orbit forms, the
      overlap scans, the containment tests on rays (`inside`) and the
      translates (`translate`) of the merges and covers read; by it,
      `shear_lattice` maps the lattices of the orbit forms, the overlap
      scans and the translates;
    - per (ray, m), the sheared ray T_m r (`shear`), which the orbit
      forms, `inside` and the overlap scans' pulled-back rays read;
    - the embedded base cone of check (7) (`base_cone`).

    Each public entry point makes its own, so no table outlives one call.
    """

    def __init__(self, base):
        self.base = base
        self._forms = {}
        self._faces = {}
        self._rays = {}
        self._slopes = {}
        self._blocks = {}
        self._sheared = {}

    def __call__(self, sc):
        return self.of(sc.cone.rays, sc.lattice, sc.cone.span_basis)

    def of(self, rays, lattice, span_basis):
        """(form, shift): the key (rays, lattice part) of the least of the
        candidate translates T_shift(sc) of the cone sc with these rays,
        this lattice and this saturated span basis, ordered by that key.
        Only the rays and the lattice decide it, so a face of a cone needs
        no Cone of its own.  The lattice part is None when the lattice is
        the span lattice (its basis is `span_basis`), else the HNF basis of
        the translated lattice.  That is exact: T_m keeps saturation, the
        span lattice is a function of the rays, and None is never equal to
        a basis.  So a span lattice is neither sheared nor put in HNF.

        The candidate shifts are −⌊μ⌋, componentwise, for the slopes μ of the
        rays with nonzero base part; each depends on its ray alone
        (`_shift`).  Slopes of T_d(sc) are those of sc plus d, so T_d(sc)
        has the same candidates and the same least one.  Hence a and b
        share an orbit iff their forms are equal, and then
        T_{s_a − s_b}(a) = b, the only such m when a has a ray with nonzero
        base part (G_n is nonsingular there).  T_m keeps the rays sorted and
        fixes those with zero base part, which come first; at the first ray
        r with nonzero base part, T_s(r) − r = (0, G_n s, 0) is injective in
        s.  So that ray alone picks the least translate, and only its shift
        shears the other rays and the lattice; no translated cone is built.
        Other cones, and all cones when g = 0, are their own form with
        shift 0.
        """
        key = rays, None if lattice.basis == span_basis else lattice.basis
        if key not in self._forms:
            shifts = {self._shift(r) for r in rays} if self.base.m_rank else set()
            shifts.discard(None)
            if shifts:
                b = self.base.base_rank
                first = next(r for r in rays if any(r[:b]))
                s = min(shifts, key=lambda s: self.shear(first, s))
                lat = None if key[1] is None else self.shear_lattice(lattice, s).basis
                self._forms[key] = (tuple(self.shear(r, s) for r in rays), lat), s
            else:
                self._forms[key] = key, tuple([0] * self.base.m_rank)
        return self._forms[key]

    def faces(self, sc):
        """(face, lattice, (form, shift)) for each proper nonzero face of the
        StackyCone sc, in face walk order: its `cones.face_walk` entry, sc's
        lattice restricted to its span (the face's span lattice when sc is
        saturated), and its orbit form (`of`)."""
        key = (sc.cone.rays, sc.lattice.basis)
        if key not in self._faces:
            out = []
            n = sc.ambient_rank
            for face in sc.cone.face_walk:
                rays, span_basis, _ = face
                if rays and rays != sc.cone.rays:
                    lattice = (
                        L.Sublattice(n, span_basis)
                        if sc.saturated
                        else F._restrict_to_span(sc.lattice, span_basis)
                    )
                    out.append((face, lattice, self.of(rays, lattice, span_basis)))
            self._faces[key] = out
        return self._faces[key]

    def tops(self, cells):
        """The cells of positive dimension whose orbit form is the form of
        no proper face of a cell."""
        face_forms = {f for c in cells for _, _, (f, _) in self.faces(c)}
        return [c for c in cells if c.dim > 0 and self(c)[0] not in face_forms]

    def slopes(self, rays):
        if rays not in self._slopes:
            data = [self._ray(r) for r in rays] if self.base.m_rank else []
            self._slopes[rays] = _Slopes(data)
        return self._slopes[rays]

    def _ray(self, ray):
        if ray not in self._rays:
            self._rays[ray] = _ray_data(self.base, ray)
        return self._rays[ray]

    def _shift(self, ray):
        """−⌊μ⌋ for the ray's slope μ = v/d (`_ray_data`), or None when it
        has none."""
        mu = self._ray(ray)[1]
        return mu and tuple(-(x // mu[1]) for x in mu[0])

    def shear(self, ray, m):
        """T_m r for a ray r (`_shear` by the block A_m)."""
        key = ray, m
        if key not in self._sheared:
            self._sheared[key] = _shear(self.block(m), self.base.base_rank, ray)
        return self._sheared[key]

    def block(self, m):
        """The shear block A_m (`shear_block`)."""
        if m not in self._blocks:
            self._blocks[m] = shear_block(self.base, m)
        return self._blocks[m]

    def inside(self, c, rho, m):
        """Is c ⊆ T_m(ρ)?  It is iff T_{−m} maps every ray of c into ρ, so
        no translate is built."""
        back = tuple(-x for x in m)
        return all(C.member(rho.cone, self.shear(r, back)) for r in c.cone.rays)

    def shear_lattice(self, lattice, m):
        """T_m(lattice): its basis mapped by T_m and put back in HNF."""
        A, b = self.block(m), self.base.base_rank
        return L.canonicalize([_shear(A, b, v) for v in lattice.basis], lattice.ambient_rank)

    def translate(self, sc, m):
        """T_m(sc), as `translate` describes."""
        if not sc.cone.rays:
            return sc
        lat = self.shear_lattice(sc.lattice, m)
        return F.StackyCone(_shear_cone(sc.cone, self.block(m), self.base.base_rank), lat)

    @cached_property
    def base_cone(self):
        """σ0 × {0} × {0} with its lattice, in the full ambient."""
        base = self.base
        pad = base.m_rank + base.torus_rank
        rays = [tuple(r) + (0,) * pad for r in base.base_cone.cone.rays]
        lat = [tuple(bv) + (0,) * pad for bv in base.base_cone.lattice.basis]
        n = base.ambient_rank
        return F.StackyCone(C.from_rays(rays, n), L.canonicalize(lat, n))

    def candidates(self, c1, c2):
        """`candidate_translations(c1, c2, base)`, from the cones' `_Slopes`."""
        s1, s2 = self.slopes(c1.cone.rays), self.slopes(c2.cone.rays)
        g = self.base.m_rank
        if not s1.rows or not s2.rows:
            hit = C.cut_pass(c1.cone, *C.cut_rows(c2.cone))[0]
            return (tuple([0] * g),) if hit else ()
        b = self.base.base_rank
        functionals, n_eq = C.cut_rows(c2.cone)
        forms = [
            [(dot(f, r), [dot(row, f[b : b + g]) for row in G]) for f in functionals]
            for r, G in zip(c1.cone.rays, s1.grams)
        ]
        found = []
        for m in product(*_translation_box(s1, s2)):
            columns = [[c - dot(m, w) for c, w in col] for col in forms]
            if C.orthant_cut_is_nonzero(columns, n_eq):
                found.append(m)
        return tuple(found)


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


def validate_av_fan(fan):
    """Violations of the translation-equivariant fan conditions.

    The overlap checks (1), (4) and (5) are decided on the pairs of tops
    only (`_OrbitForms.tops`): the representatives of positive dimension
    that are not a translate of a proper face of one.  This is exact by
    the fan lemma.  Let σ be a face of σ′ and τ a face of τ′.  If
    ρ = σ′ ∩ τ′ is a face of both, then σ ∩ ρ and τ ∩ ρ are faces of ρ, so
    σ ∩ τ is a face of σ and of τ; lattice restrictions compose the same
    way, so (4) passes down to faces.  Fixedness passes down too: for
    τ = T_a(face of τ′), τ ∩ T_m τ ⊆ T_a(τ′ ∩ T_m τ′), and T_a keeps the
    base part that Q_hom,N(m) reads.  The lemma needs every representative
    to lie in a translate of a top, which is check (3), so (3) runs first.
    Only when some check fails are all pairs scanned, so that the list
    names every violating pair, with the (1)/(4) messages before the (5).
    """
    out = local_violations(fan)
    if out:
        return out
    form = _OrbitForms(fan.base)
    reps = fan.representatives
    head = []
    # (7) the embedded base cone is present.
    if form.base_cone not in reps:
        head.append("(7): base cone σ0×{0}×{0} is not among the representatives")
    if not any(sc.cone.rays == () for sc in reps):
        head.append("(3): zero cone missing from representatives")
    # (3): faces of representatives are translates of representatives.
    forms = {form(t)[0] for t in reps}
    faces = [
        f"(3): face {face[0]} of {t.cone.rays} is not a translate of any "
        f"representative"
        for t in reps
        for face, _, (face_form, _) in form.faces(t)
        if face_form not in forms
    ]
    if head or faces or any(_overlap_violations(form.tops(reps), form)):
        overlaps = _overlap_violations(reps, form)
        return head + sorted(overlaps, key=lambda v: v.startswith("(5)")) + faces
    return []


def local_violations(fan):
    """Violations of the form and of each representative on its own: its
    ambient rank, its lattice and the admissibility of its rays, each
    distinct ray tested once.  The orbit and translation code
    (`_ray_data`) assumes there are none."""
    base = fan.base
    out = list(validate_form(base))
    if out:
        return ["base form invalid: " + v for v in out]
    by_ray = {}
    for sc in fan.representatives:
        if sc.ambient_rank != base.ambient_rank:
            return [f"representative {sc.cone.rays} has wrong ambient rank"]
        out.extend(F.validate_stacky_cone(sc))
        for ray in sc.cone.rays:
            if ray not in by_ray:
                by_ray[ray] = _ray_violations(base, ray)
            out.extend(by_ray[ray])
    return out


def _ray_violations(base, ray):
    """The `local_violations` messages of one ray: its base part lies in
    the base cone, the ray is admissible (`admissible_point`), and a zero
    base part has a zero N part."""
    n, nprime, _ = split_point(base, ray)
    out = []
    if not C.member(base.base_cone.cone, n):
        out.append(f"ray {ray} has base part outside the base cone")
    elif not admissible_point(n, nprime, base):
        out.append(f"ray {ray} is not an admissible point")
    if is_zero(n) and not is_zero(nprime):
        out.append(f"ray {ray} has zero base part but nonzero N part")
    return out


def _overlap_violations(reps, form):
    """The (1), (4) and (5) messages of every pair of reps, in scan order,
    over the base of `form` (an `_OrbitForms`).

    No overlap cone is built.  The overlap t1 ∩ T_m(t2) is t1 cut by t2's
    span equations and facet normals pulled back by T_{−m} (`_pull_back`),
    and one `cones.cut_pass` gives its extreme rays and the functionals
    tight on all of them, from zero masks that are exact (Fukuda–Prodon
    1996).  The overlap is a face of t1 iff its rays are the rays of t1
    tight on the t1 normals among those, and a face of T_m(t2) iff T_{−m}
    of its rays are the rays of t2 tight on the pulled-back t2 normals
    among them (`cones.tight_rays`).  Check (5) reads the rays.  T_m keeps
    saturation, so (4) holds when both lattices are their cones' span
    lattices; else only t2's lattice is sheared, and the two lattices are
    restricted to the span of the overlap's rays.
    """
    base = form.base
    b, n = base.base_rank, base.ambient_rank
    # (1),(2),(4): all translated pairwise intersections are common faces
    # with matching lattices.  (5): τ ∩ T_m τ is pointwise fixed by T_m,
    # i.e. lies in the vanishing locus of x ↦ Q_hom,N(m)(x_base).
    for i, t1 in enumerate(reps):
        for j, t2 in enumerate(reps):
            if j < i:
                continue
            rows, n_eq = C.cut_rows(t2.cone)
            for m in form.candidates(t1, t2):
                if i == j and is_zero(m):
                    continue
                A = form.block(m)
                pulled_rows = [_pull_back(A, b, f) for f in rows]
                rays, own, other = C.cut_pass(t1.cone, pulled_rows, n_eq)
                if i == j:
                    for x in rays:
                        if any(dot(row, x[:b]) for row in A):
                            yield (
                                f"(5): {x} in the overlap of {t1.cone.rays} with "
                                f"its T_{m}-translate is not fixed: T_{m}{x} = "
                                f"{_shear(A, b, x)}"
                            )
                back = tuple(-k for k in m)
                pulled = [form.shear(x, back) for x in rays]
                if not (
                    rays == C.tight_rays(t1.cone, own)
                    and pulled == C.tight_rays(t2.cone, other)
                ):
                    yield (
                        f"(1): {t1.cone.rays} and T_{m}{t2.cone.rays} do not "
                        f"meet along a common face"
                    )
                    continue
                if t1.saturated and t2.saturated:
                    continue
                span_basis = C.ray_span(rays, n)
                moved = form.shear_lattice(t2.lattice, m)
                if F._restrict_to_span(t1.lattice, span_basis) != F._restrict_to_span(
                    moved, span_basis
                ):
                    yield (
                        f"(4): lattices disagree on the overlap of "
                        f"{t1.cone.rays} and T_{m}{t2.cone.rays}"
                    )


def _orbit_classes(fan, form, strict=False):
    """Representatives grouped one per T_m-orbit (canonical order).

    Cones are keyed by orbit form (`form`, an `_OrbitForms`) and zero
    cones share one key.  With strict=True, raises NormalizationError when
    two representatives lie in the same orbit.
    """
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
    """Cone complex of translation-orbit classes with unique face maps:
    T_m(a) is the face f of b iff a has f's orbit form and m = s_a − s_f,
    and the zero cell maps to every other cell at m = 0."""
    form = _OrbitForms(fan.base)
    cells = _orbit_classes(fan, form, strict=True)
    index = {form(c)[0]: i for i, c in enumerate(cells) if c.dim > 0}
    witnesses = {}
    for j, b in enumerate(cells):
        if j and cells[0].dim == 0:
            witnesses[0, j] = [(0,) * fan.base.m_rank]
        for _, _, (form_f, s_f) in form.faces(b):
            if form_f in index:
                i = index[form_f]
                m = tuple(x - y for x, y in zip(form(cells[i])[1], s_f))
                witnesses.setdefault((i, j), []).append(m)
    face_maps = []
    for (i, j), ms in sorted(witnesses.items()):
        if len(ms) > 1:
            raise NormalizationError(
                f"multiple face morphisms between cells {cells[i].cone.rays} "
                f"and {cells[j].cone.rays}: {sorted(ms)}"
            )
        face_maps.append((i, j, ms[0]))
    return QuotientComplex(tuple(cells), tuple(face_maps))


def av_complete(fan):
    """Does the translation-orbit union of cones cover the admissible region?

    Ridge-pairing on the quotient (`_ridges_pair`): every
    codimension-1 face of a maximal cell whose interior lies over the
    relative interior of σ0 must bound exactly two maximal cells, counted
    with translation multiplicity.  Cells are compared without lattices.
    """
    base = fan.base
    form = _OrbitForms(base)
    cells = [
        F.StackyCone(c.cone, F.span_lattice(c.cone)) for c in _orbit_classes(fan, form)
    ]
    D = base.base_cone.dim + base.m_rank + base.torus_rank
    if D == 0:
        return True
    tops = [c for c in cells if c.dim == D]
    if not tops:
        return False
    # The tops owning each face orbit, once per face of a top, and the
    # ridges: the faces of dimension D − 1, with their forms.  At D = 1
    # the ridge is the zero face, which every top has (key None).
    owners = {None: list(range(len(tops)))}
    ridges = [((), None)] * len(tops) if D == 1 else []
    for ti, top in enumerate(tops):
        for (rays, span_basis, _), _, (key, _) in form.faces(top):
            owners.setdefault(key, []).append(ti)
            if len(span_basis) == D - 1:
                ridges.append((rays, key))
    # Every lower cell must appear as a face of some translated top.
    if any(form(c)[0] not in owners for c in cells if c.dim not in (0, D)):
        return False
    # The owners of each ridge over the relative interior of σ0; a ridge's
    # interior point is the sum of its rays.
    zero = [0] * base.ambient_rank
    interior = []
    for rays, key in ridges:
        p = split_point(base, [sum(x) for x in zip(*rays)] or zero)[0]
        if C.contains_point(base.base_cone.cone, p) == C.RELATIVE_INTERIOR:
            interior.append(owners[key])
    return _ridges_pair(interior, len(tops))


def _ridges_pair(groups, count):
    """Does each group (the tops at one ridge) hold exactly two of the
    count ≥ 1 tops, and do these pairs connect all of them?  The pairs
    are joined in one union-find forest (`_find`)."""
    if any(len(members) != 2 for members in groups):
        return False
    parent = list(range(count))
    for a, b in groups:
        parent[_find(parent, a)] = _find(parent, b)
    return _connected(parent)


def _find(parent, x):
    """The root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _connected(parent):
    """Is the union-find forest `parent` one tree?"""
    return len({_find(parent, x) for x in range(len(parent))}) == 1


def _maximal_classes(cells, form):
    """The cells in no translate of a cell of higher dimension, over the
    base of `form`: the tops (else the zero cells) in no translate of a
    higher top, since a non-top lies in a translate of a higher cell and
    such chains end at tops.  Containment is tested on rays
    (`_OrbitForms.inside`) for each m that `candidates` finds."""
    tops = form.tops(cells) or cells
    return [
        c
        for c in tops
        if not any(
            rho.dim > c.dim and any(form.inside(c, rho, m) for m in form.candidates(c, rho))
            for rho in tops
        )
    ]


def av_minimal(fan):
    """Greedy coarsening: merge orbit-adjacent cells with equal lattices.

    The input must have no `local_violations`, as the orbit forms
    assume (the CLI refuses such a fan).  A merge is kept only when the
    merged fan still validates (in particular the pointwise-fixedness
    condition survives), which keeps the coarsening
    translation-equivariant.  The merged fan is the face closure of the
    cells (`_rebuild`), so it holds the zero cone and passes check (3).
    It has no `local_violations` either: a wall merge keeps its pieces'
    lattice and span, T_m keeps each ray's base part and admissibility
    (it adds G_n·m to n′), and `_rebuild` gives each face its cell's
    lattice restricted to the face's span.  So it validates iff it holds
    the embedded base cone, which most merges lack and which is tested
    first, and its tops pass the overlap checks, as in
    `validate_av_fan`.  In a valid fan a class inside a translate of a
    higher cell is a translate of a face of it, so the tops are the
    maximal classes, and the search starts again from them.  The merges
    are tried in `_merges`' order, and the coarsening ends when none of
    them is kept.
    """
    base = fan.base
    form = _OrbitForms(base)
    cells = _maximal_classes(_orbit_classes(fan, form), form)
    while True:
        for new_cells in _merges(cells, form):
            candidate, tops = _rebuild(base, new_cells, form)
            if form.base_cone in candidate.representatives and not any(
                _overlap_violations(tops, form)
            ):
                cells = tops
                break
        else:
            return _rebuild(base, cells, form)[0]


def _merges(cells, form):
    """The merges `av_minimal` tries, in order.  For each ordered pair
    (i, j) of cells of one positive dimension, it yields the cells
    without cells i and j, followed by the first wall merge of cells[i]
    with a translate T_m(cells[j]) (m ≠ 0 when i = j) that succeeds; a
    pair with no such merge yields nothing."""
    for i, ci in enumerate(cells):
        for j, cj in enumerate(cells):
            if ci.dim != cj.dim or ci.dim == 0:
                continue
            for m in form.candidates(ci, cj):
                if i == j and is_zero(m):
                    continue
                merged = F.merge_across_wall(ci, form.translate(cj, m))
                if merged is not None:
                    yield [c for k, c in enumerate(cells) if k not in (i, j)] + [merged]
                    break


def _rebuild(base, cells, form):
    """(fan, tops): the fan from maximal cells, with their face orbits and
    the zero cone added, and its tops (`_OrbitForms.tops`).  Only a face
    whose orbit form is new is built as a Cone."""
    reps = list(cells)
    seen_zero = any(c.dim == 0 for c in reps)
    if not seen_zero:
        n = base.ambient_rank
        reps.append(F.StackyCone(C.zero_cone(n), L.zero_lattice(n)))
    fan = AVStackyFan(base, F._sort_stacky(reps))
    classes = _orbit_classes(fan, form)
    orbits = {form(c)[0]: c for c in classes}
    for c in classes:
        for face, lattice, (key, _) in form.faces(c):
            if key not in orbits:
                orbits[key] = F.StackyCone(C.face_cone(c.cone, face), lattice)
    return av_fan(base, list(orbits.values())), form.tops(classes)


def av_bir_equivalent(f1, f2):
    """Equality of S-sets of two fans over the same base, up to translation."""
    if f1.base != f2.base:
        raise IncompatibleBaseError("fans are defined over different bases")
    base = f1.base
    form = _OrbitForms(base)
    m1 = _maximal_classes(_orbit_classes(f1, form), form)
    m2 = _maximal_classes(_orbit_classes(f2, form), form)
    return _av_covers(m1, m2, form) and _av_covers(m2, m1, form)


def _av_covers(pieces1, pieces2, form):
    """Does each piece of pieces1 lie in the union of the translates of
    pieces2 that meet it, with the same lattices on their overlaps?

    The pairs (ρ, m) with t1 ∩ T_m(ρ) ≠ {0} are gathered first.  When one
    translate holds t1, tested on rays (`_OrbitForms.inside`), t1 is
    covered; only otherwise does `cones.cone_covered_by` run on all of
    them.  The overlay skips a translate T_m(ρ) when t1's and ρ's lattices
    are both their cones' span lattices: T_m keeps saturation, and the
    span lattice restricted to a cell is the cell's span lattice, so both
    sides restrict to the same lattice there.  So a translate is built
    only for the cover test or the overlay, and at most once per piece.
    """
    for t1 in pieces1:
        meeting = [(rho, m) for rho in pieces2 for m in form.candidates(t1, rho)]
        overlaid = [
            i for i, (rho, _) in enumerate(meeting) if not (t1.saturated and rho.saturated)
        ]
        held = any(form.inside(t1, rho, m) for rho, m in meeting)
        moved = {
            i: form.translate(*meeting[i])
            for i in (overlaid if held else range(len(meeting)))
        }
        if not held and not C.cone_covered_by(t1.cone, [t.cone for t in moved.values()]):
            return False
        if MIN._overlay_mismatch([t1], [moved[i] for i in overlaid]) is not None:
            return False
    return True


def reference_subdivision(symmetry_vectors, torus_rank):
    """Complete fan on the torus factor cut by symmetry hyperplanes."""
    if torus_rank == 0:
        return F.fan_from_maximal([], 0)
    vectors = [tuple(v) for v in symmetry_vectors]
    if rational_rank(vectors) < torus_rank:
        raise ArrangementDegenerateError(
            "symmetry vectors do not span the torus factor"
        )
    full = L.full_lattice(torus_rank)
    return F.fan_from_maximal(
        [F.StackyCone(c, full) for c in C.arrangement_chambers(vectors, torus_rank)],
        torus_rank,
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
    tree = []
    chords = []
    for idx, (u, v, _) in enumerate(edges):
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
        else:
            chords.append(idx)
    if not _connected(parent):
        raise ConnectivityError("graph is not connected")
    # One walk of the tree from vertex 0: path[x] holds the signed edge
    # coefficients of the tree path 0 -> x.
    adjacency = {v: [] for v in range(num_vertices)}
    for idx in tree:
        u, v, _ = edges[idx]
        adjacency[u].append((v, idx, 1))
        adjacency[v].append((u, idx, -1))
    path = {0: [0] * len(edges)}
    stack = [0]
    while stack:
        x = stack.pop()
        for y, idx, sgn in adjacency[x]:
            if y not in path:
                path[y] = list(path[x])
                path[y][idx] = sgn
                stack.append(y)
    # Fundamental cycle of chord (u, v): the chord, then the tree path
    # v -> u, which is path[u] - path[v].
    cycles = []
    for idx in chords:
        u, v, _ = edges[idx]
        cycle = [a - c for a, c in zip(path[u], path[v])]
        cycle[idx] = 1
        cycles.append(cycle)

    def pairing(ci, cj):
        total = [0] * b
        for a, c, (_, _, length) in zip(ci, cj, edges):
            if a and c:
                total = [t + a * c * x for t, x in zip(total, length)]
        return tuple(total)

    q = [tuple(pairing(ci, cj) for cj in cycles) for ci in cycles]
    return PolarizedBase(base_cone, len(chords), tuple(q), torus_rank)
