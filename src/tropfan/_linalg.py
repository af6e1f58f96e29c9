"""Exact integer linear algebra helpers.

Ranks, kernels, coordinates in a lattice basis and lattice indices all
come from the integer Hermite normal form; determinants and adjugate
solves (the slopes of `semiabelian`) and positive semidefiniteness from
fraction-free elimination; no floats anywhere.  fractions.Fraction is
left only in `rational_solve`, which `tests/test_kernel.py` and
`bench/layers.py` still use, and `lp_feasible`, the simplex kept as a
reference for the tests.
Matrices are lists of row tuples/lists.
"""

from fractions import Fraction
from math import gcd


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vec_gcd(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def is_zero(v):
    return all(x == 0 for x in v)


def _hnf_in_place(rows, ncols):
    """Row-style HNF over the first `ncols` columns, in place; returns the rank.

    Whole rows are combined, so any trailing columns follow the row operations.
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # Euclidean elimination below the pivot.
        for j in range(r + 1, m):
            while rows[j][c] != 0:
                q = rows[r][c] // rows[j][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[j])]
                rows[r], rows[j] = rows[j], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for j in range(r):
            q = rows[j][c] // rows[r][c]
            if q:
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[r])]
        r += 1
    return r


def hnf_with_transform(mat, ncols):
    """Row-style Hermite normal form with unimodular transform.

    Returns (H, U, rank) with U * mat == H, pivots positive and entries
    above each pivot reduced into [0, pivot).  Zero rows of H sit at the
    bottom.  U is read from identity columns appended to a copy of `mat`.
    """
    w = len(mat[0]) if mat else 0
    rows = [list(row) + [int(i == k) for k in range(len(mat))] for i, row in enumerate(mat)]
    r = _hnf_in_place(rows, ncols)
    return [tuple(row[:w]) for row in rows], [row[w:] for row in rows], r


def hnf(mat, ncols):
    """Nonzero rows of the row-style Hermite normal form of `mat`."""
    rows = [list(row) for row in mat]
    r = _hnf_in_place(rows, ncols)
    return [tuple(row) for row in rows[:r]]


def pivot_columns(H, ncols):
    pivots = []
    for row in H:
        for c in range(ncols):
            if row[c] != 0:
                pivots.append(c)
                break
    return pivots


def express_in_hnf(H, ncols, v):
    """Integer coefficients c with sum(c_i * H_i) == v, or None.

    H must be in row HNF (nonzero rows only).
    """
    v = list(v)
    coeffs = []
    pivots = pivot_columns(H, ncols)
    for row, p in zip(H, pivots):
        if v[p] % row[p] != 0:
            # Might still fail later; the triangular structure makes this exact.
            return None
        q = v[p] // row[p]
        coeffs.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return coeffs


def left_kernel(mat, ncols):
    """Basis of {u integer : u * mat == 0} for `mat` with len(mat) rows."""
    H, U, r = hnf_with_transform(mat, ncols)
    return [tuple(row) for row in U[r:]]


def integer_kernel(mat, ncols):
    """Basis of the integer solutions x of mat * x == 0 (x of length ncols).

    The result is a saturated lattice basis (the full integer kernel).
    """
    if not mat:
        return [tuple(1 if i == j else 0 for j in range(ncols)) for i in range(ncols)]
    transpose = [tuple(row[i] for row in mat) for i in range(ncols)]
    return left_kernel(transpose, len(mat))


def solve_integer(rows, ncols, targets):
    """For each target t, one integer solution c of sum(c_i * rows_i) == t,
    or None; one HNF of `rows` serves every target."""
    H, U, r = hnf_with_transform(rows, ncols)
    out = []
    for target in targets:
        coeffs = express_in_hnf(H[:r], ncols, target)
        if coeffs is None:
            out.append(None)
            continue
        sol = [0] * len(rows)
        for c, urow in zip(coeffs, U[:r]):
            if c:
                sol = [a + c * b for a, b in zip(sol, urow)]
        out.append(tuple(sol))
    return out


def rational_rank(mat):
    """Rank over Q of an integer matrix."""
    return len(hnf(mat, len(mat[0]) if mat else 0))


def _bareiss(rows):
    """Fraction-free Gauss–Jordan elimination (Bareiss 1968) of a square
    integer matrix with extra columns, in place; returns (pivot, sign).

    Every division is exact by Sylvester's identity.  For a nonsingular
    matrix every diagonal entry ends as the last pivot, det = sign·pivot,
    and each extra column c ends as sign·adj·c.  A singular matrix stops
    the elimination with pivot 0.
    """
    n = len(rows)
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0, sign
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        p = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * a - f * c) // prev for a, c in zip(rows[i], rows[k])]
        prev = p
    return prev, sign


def det(mat):
    """Determinant of a square integer matrix."""
    pivot, sign = _bareiss([list(row) for row in mat])
    return sign * pivot


def adjugate_solve(mat, rhs):
    """(adj(mat)·rhs, det mat) for a nonsingular square integer matrix, so
    that mat·x = rhs has the solution x = adj(mat)·rhs / det; None when mat
    is singular."""
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivot, sign = _bareiss(rows)
    if pivot == 0:
        return None
    return tuple(sign * row[-1] for row in rows), sign * pivot


def rational_solve(mat, rhs):
    """One rational solution x of mat * x == rhs, or None if inconsistent.

    mat is a list of rows; rhs a vector of the same length as mat.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    pivots = []
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][c]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(c)
        rank += 1
    for i in range(rank, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row, c in zip(aug[:rank], pivots):
        x[c] = row[n]
    return x


def is_psd(mat):
    """Exact positive-semidefiniteness of an integer symmetric matrix.

    Symmetric pivoting on the diagonal: a symmetric matrix is PSD iff at
    every step the working diagonal is nonnegative and no zero diagonal
    entry has a nonzero row.  The elimination is fraction-free as in
    Bareiss (1968): a step at pivot p > 0 sets each trailing entry to
    (p·a_ij − a_ik·a_kj) / p_prev, an exact division.  The result is a
    minor of the matrix, the Schur complement entry times p, so its sign
    is the sign the rational elimination would give.  A skipped zero
    pivot, whose row is zero, leaves p_prev as it is.
    """
    a = [list(row) for row in mat]
    n = len(a)
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p < 0:
            return False
        if p == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (p * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = p
    return True


def lp_feasible(a_eq, b_eq, nvars):
    """Exact feasibility of {x >= 0 : a_eq x = b_eq} via phase-1 simplex.

    Bland's rule guarantees termination.  Entries may be ints or Fractions.
    """
    m = len(a_eq)
    rows = []
    rhs = []
    for row, b in zip(a_eq, b_eq):
        row = [Fraction(x) for x in row]
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    # Tableau columns: nvars structural + m artificial + rhs.
    total = nvars + m
    tab = []
    for i in range(m):
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tab.append(rows[i] + art + [rhs[i]])
    basis = [nvars + i for i in range(m)]
    # Objective: minimize sum of artificials -> reduced cost row.
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            cost[j] += tab[i][j]
    while True:
        enter = None
        for j in range(nvars):  # artificials never re-enter
            if cost[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            break  # unbounded improving direction cannot happen in phase 1
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter
    return cost[total] == 0
