"""The integer HNF kernel against the Fraction and LP code it replaced.

Each reference below is the slow path the library used before its
decisions moved onto the Hermite normal form: a phase-1 simplex for
pointedness, and Fraction Gaussian elimination for rank, determinant
(lattice index) and span coordinates.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tropfan
import tropfan.cones as C
import tropfan.lattice as L
from tropfan._linalg import (
    express_in_hnf,
    is_psd,
    lp_feasible,
    rational_rank,
    rational_solve,
)


def ref_pointed(rays):
    """cone(rays) is non-pointed iff 0 is a nontrivial nonneg combination."""
    nonzero = [r for r in rays if any(r)]
    if not nonzero:
        return True
    n = len(nonzero[0])
    a_eq = [[r[i] for r in nonzero] for i in range(n)] + [[1] * len(nonzero)]
    return not lp_feasible(a_eq, [0] * n + [1], len(nonzero))


def ref_rank(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def ref_is_psd(mat):
    """Symmetric Gaussian pivoting over Fractions: PSD iff every working
    diagonal entry is nonnegative and a zero one has a zero row."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] != 0 for j in range(k, n)):
                return False
            continue
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def ref_contains_point(cone, v):
    """The classification with a Fraction solve for span membership."""
    if not any(v):
        return C.RELATIVE_INTERIOR if cone.dim == 0 else C.BOUNDARY
    if cone.dim == 0:
        return C.OUTSIDE
    basis = cone.span_basis
    mat = [[b[i] for b in basis] for i in range(len(v))]
    if rational_solve(mat, v) is None:
        return C.OUTSIDE
    signs = [sum(h * x for h, x in zip(hv, v)) for hv in cone.facet_normals]
    if any(s < 0 for s in signs):
        return C.OUTSIDE
    if any(s == 0 for s in signs):
        return C.BOUNDARY
    return C.RELATIVE_INTERIOR


entry = st.integers(-3, 3)


@st.composite
def ray_sets(draw):
    """Rank 2-4 ray sets; some are made non-pointed on purpose."""
    n = draw(st.integers(2, 4))
    rays = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    how = draw(st.sampled_from(["plain", "negate", "zero_sum"]))
    if how == "negate":
        rays.append([-x for x in rays[draw(st.integers(0, len(rays) - 1))]])
    elif how == "zero_sum":
        rays.append([-sum(col) for col in zip(*rays)])
    return n, [tuple(r) for r in rays]


@settings(max_examples=300, deadline=None)
@given(ray_sets())
def test_pointedness_matches_lp(case):
    n, rays = case
    try:
        C.from_rays(rays, n)
        pointed = True
    except C.PointednessError:
        pointed = False
    assert pointed == ref_pointed(rays)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=5)
    )
)
def test_rank_matches_fraction_gauss(mat):
    assert rational_rank(mat) == ref_rank(mat)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n + 1),
            st.lists(st.lists(entry, min_size=n + 1, max_size=n + 1), min_size=n, max_size=n),
        )
    )
)
def test_index_matches_fraction_det(case):
    n, gens, combos = case
    sup = L.canonicalize(gens, n)
    # Integer combinations of sup's basis span a sublattice of it.
    sub_gens = [
        [sum(c * b[i] for c, b in zip(row, sup.basis)) for i in range(n)] for row in combos
    ]
    sub = L.canonicalize(sub_gens, n)
    if sub.rank < sup.rank:
        assert L.index_in(sub, sup) == L.INFINITE
        return
    coords = [express_in_hnf(list(sup.basis), n, b) for b in sub.basis]
    assert L.index_in(sub, sup) == abs(ref_det(coords))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n),
            st.lists(st.integers(-1, 2), min_size=n, max_size=n),
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        )
    )
)
def test_contains_point_matches_fraction_solve(case):
    n, rays, coeffs, shift = case
    try:
        cone = C.from_rays(rays, n)
    except C.PointednessError:
        assume(False)
    # Points near the cone: a combination of its generators, nudged.
    v = tuple(
        sum(c * r[i] for c, r in zip(coeffs, rays)) + s for i, s in enumerate(shift)
    )
    assert C.contains_point(cone, v) == ref_contains_point(cone, v)


def _random_symmetric(rng, g):
    """A seeded symmetric integer matrix: B·Bᵀ for a B of random width
    (singular when narrower than g), with a random diagonal shift or
    sign that makes some indefinite, or a plain random symmetric one."""
    style = rng.choice(["gram", "shifted", "negated", "plain"])
    if style == "plain":
        a = [[rng.randint(-4, 4) for _ in range(g)] for _ in range(g)]
        return [[a[i][j] + a[j][i] for j in range(g)] for i in range(g)]
    b = [[rng.randint(-3, 3) for _ in range(rng.randint(0, g + 1))] for _ in range(g)]
    m = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(g)] for i in range(g)]
    if style == "shifted":
        k = rng.randrange(g)
        m[k][k] += rng.randint(-3, 3)
    elif style == "negated":
        m = [[-x for x in row] for row in m]
    return m


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_is_psd_matches_fraction_pivoting(g):
    rng = random.Random(g)
    seen = set()
    for _ in range(400):
        m = _random_symmetric(rng, g)
        want = ref_is_psd(m)
        assert is_psd(m) == want
        seen.add((want, ref_rank(m) == g))
    # PSD and not, singular and not, all occur (a singular 1×1 is 0).
    want_seen = {(True, True), (True, False), (False, True), (False, False)}
    assert seen == want_seen - ({(False, False)} if g == 1 else set())


def test_only_linalg_imports_fractions():
    src = pathlib.Path(tropfan.__file__).resolve().parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names:
                importers.append(path.name)
    assert sorted(set(importers)) == ["_linalg.py"]
