"""Brute-force oracles used to cross-check the symbolic algorithms.

These are independent code paths (exact box sweeps and scans, and
seeded random sampling) with one exception: `cover_sample_av` finds
the translates that hold a sampled point with
`semiabelian.candidate_translations` and `semiabelian.translate`, the
code it is meant to check, so it is no independent check of
translation coverage.  The S-set box sweep fills each line of the box
once: every piece adds the last coordinates of its points to the sets
of the lines they lie on (`_sweep_piece`), and the lines, read in
order, give the box's lexicographic order.
"""

import random
from itertools import product

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from . import semiabelian as S


def _stacky_pieces(obj):
    if isinstance(obj, MIN.MinimalFan):
        return list(obj.pieces)
    return list(obj.cones)


def _adds_points(sc, rays, keyed):
    """False when another piece holds every point of sc, so that sc adds
    no point; `keyed` holds each piece with the set of its rays.

    Only a piece whose rays are a proper superset of sc's rays (the set
    `rays`) is asked, since its cone holds sc's cone.  A saturated one
    settles it with no lattice test: its points are all the integer
    points of its cone, even where sc's lattice leaves sc's span.  Any
    other one holds sc's points when sc's lattice lies in its lattice.
    """
    supersets = [p for p, other in keyed if rays < other]
    return not any(p.saturated for p in supersets) and not any(
        L.contains(p.lattice, sc.lattice) for p in supersets
    )


def s_enumerate(obj, radius):
    """All points of the S-set inside the box [-radius, radius]^n, in the
    box's lexicographic order.

    The box is a list of lines: the prefixes u of the first n−1
    coordinates, in lexicographic order, each with the last coordinate t
    free.  Each piece that adds points is swept along them
    (`_sweep_piece`), which puts the t of each of its points into its
    line's set; the zero point goes on the middle line, the zero prefix.
    Listing the lines in order, each with its t sorted, is the box's
    order (`_in_order`).  Every box point is decided exactly, with no
    symbolic decision procedure involved.
    """
    n = obj.ambient_rank
    if n == 0:
        return [()]
    if radius < 0:
        return []  # the box is empty
    pieces = _stacky_pieces(obj)
    lines = list(product(range(-radius, radius + 1), repeat=n - 1))
    ts = {len(lines) // 2: {0}}
    keyed = [(p, set(p.cone.rays)) for p in pieces]
    for p, rays in keyed:
        if p.dim > 0 and _adds_points(p, rays, keyed):
            _sweep_piece(p, radius, lines, ts)
    return _in_order(lines, ts)


def _in_order(lines, ts):
    """The points that `_sweep_piece` put in `ts`, in the box's
    lexicographic order: the lines in order, each with its t sorted."""
    return [lines[i] + (t,) for i in sorted(ts) for t in sorted(ts[i])]


def _sweep_piece(p, radius, lines, ts):
    """Add the points of p's cone ∩ lattice in the box [-radius, radius]^n
    to `ts`, which maps the index of a line of `lines` (the box's
    prefixes, in lexicographic order) to the set of t of its points.  A
    line gets its set when it first gets a point.

    At a fixed prefix u, each facet normal of the piece, and each span
    equation taken with both signs, is affine in t and bounds it from one
    side, by floor or ceil of an integer division; an equation's two rows
    pin t to at most one integer.  Each row's values are worked out over
    all prefixes at once and folded into one interval per line.  Inside
    the interval every point lies in the cone, and the lattice points of
    the line are one solve for u (`lattice.line_solve`), which gives
    none, one t, or an arithmetic progression of t; no solve is needed
    when the piece's lattice is its span's full lattice.
    """
    cone = p.cone
    rows = []  # x ∈ cone ⇔ <row, x> >= 0 for every row
    for e in cone.span_equations:
        rows += [e, [-x for x in e]]
    rows += cone.facet_normals
    box = range(-radius, radius + 1)
    lo, hi = [-radius] * len(lines), [radius] * len(lines)
    for row in rows:
        a = [0]  # <row, (u, 0)> for each u of `lines`, in the same order
        for c in row[:-1]:
            terms = [c * y for y in box]
            a = [x + y for x in a for y in terms]
        b = row[-1]  # <row, (u, t)> = a + b·t
        if b > 0:
            lo = [max(l, -(x // b)) for l, x in zip(lo, a)]  # t >= ceil(-a / b)
        elif b < 0:
            hi = [min(h, x // -b) for h, x in zip(hi, a)]  # t <= floor(a / -b)
        else:
            hi = [h if x >= 0 else -radius - 1 for h, x in zip(hi, a)]  # a < 0 empties
    check_lattice = not p.saturated
    for i, (l, h) in enumerate(zip(lo, hi)):
        if l > h:
            continue
        step = 1
        if check_lattice:
            solved = L.line_solve(lines[i], p.lattice)
            if solved is None:
                continue
            s, d = solved
            if d:
                l, step = l + (s - l) % d, d
            else:
                l, h = max(l, s), min(h, s)  # t = s alone
            if l > h:
                continue
        line = ts.get(i)
        if line is None:
            line = ts[i] = set()
        line.update(range(l, h + 1, step))


def cover_sample_fan(fan, count, seed, radius=10):
    """Number of random box points lying in the fan's support."""
    rng = random.Random(seed)
    n = fan.ambient_rank
    covered = 0
    for _ in range(count):
        v = tuple(rng.randint(-radius, radius) for _ in range(n))
        if any(C.member(sc.cone, v) for sc in fan.cones):
            covered += 1
    return covered, count


def _random_admissible_point(rng, base, radius):
    """A random admissible point (n, n', n'') with integer entries."""
    rays = base.base_cone.cone.rays
    b = base.base_rank
    n = tuple([0] * b)
    if rays:
        coeffs = [rng.randint(0, radius) for _ in rays]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = 1
        n = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(b))
    # A rational slope p/q is realized integrally after scaling the base
    # point by q.
    q = rng.randint(1, 4)
    p = tuple(rng.randint(-radius, radius) for _ in range(base.m_rank))
    n_scaled = tuple(q * x for x in n)
    nprime = S.q_hom(base, p, n)
    nsecond = tuple(rng.randint(-radius, radius) for _ in range(base.torus_rank))
    return n_scaled + nprime + nsecond


def cover_sample_av(fan, count, seed, radius=6):
    """Random admissible points covered by some translated representative,
    found with `semiabelian.candidate_translations` and `translate`, so
    not independently of them."""
    rng = random.Random(seed)
    base = fan.base
    reps = list(fan.representatives)
    covered = 0
    for _ in range(count):
        v = _random_admissible_point(rng, base, radius)
        if all(x == 0 for x in v):
            covered += 1
            continue
        ray_sc = F.StackyCone(
            C.ray_cone(v, base.ambient_rank),
            L.canonicalize([v], base.ambient_rank),
        )
        hit = False
        for rho in reps:
            if rho.dim == 0:
                continue
            for m in S.candidate_translations(ray_sc, rho, base):
                if C.member(S.translate(rho, m, base).cone, v):
                    hit = True
                    break
            if hit:
                break
        if hit:
            covered += 1
    return covered, count


def translations_bruteforce(c1, c2, base, bound):
    """All m with |m_i| <= bound and c1 ∩ T_m(c2) ≠ {0}, by direct scan."""
    g = base.m_rank
    found = []
    for m in product(range(-bound, bound + 1), repeat=g):
        if C.intersect_cones(c1.cone, S.translate(c2, m, base).cone).dim > 0:
            found.append(m)
    return sorted(found)
