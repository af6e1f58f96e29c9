"""Correctness checks of the benchmark, run outside the timed phase.

Each check compares an operation's result with a computation made apart
from the code under test, or with a property the result must have, and
returns a list of problems (empty when the result is right).  Exact
membership in a cone and in a lattice is decided here with our own
rational elimination, not with `tropfan.cones` or `tropfan.lattice`.
"""

from fractions import Fraction
from itertools import combinations

import tropfan.minimal as MIN
import tropfan.oracle as oracle
import tropfan.serialize as SER


def _solve(columns, target):
    """Unique rational x with Σ x_i·columns[i] = target, or None when the
    columns are dependent or the target is outside their span."""
    n, k = len(target), len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(rows[i][k] != 0 for i in range(r, n)):
        return None
    return [rows[i][k] / rows[i][i] for i in range(k)]


def in_cone(rays, v):
    """v ∈ cone(rays), by Carathéodory: some independent subset of the rays
    writes v with nonnegative coefficients."""
    if not any(v):
        return True
    for size in range(1, min(len(rays), len(v)) + 1):
        for subset in combinations(rays, size):
            x = _solve(subset, v)
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


def in_lattice(basis, v):
    if not any(v):
        return True
    x = _solve(basis, v)
    return x is not None and all(c.denominator == 1 for c in x)


def in_s_set(v, stacky_cones):
    """v ∈ S = ∪ (cone ∩ lattice) over the given stacky cones."""
    return any(
        in_cone(sc.cone.rays, v) and in_lattice(sc.lattice.basis, v) for sc in stacky_cones
    )


def maximal_pieces(fan):
    """The fan's cones whose ray sets lie in no other cone's ray set; S is
    their union, since faces carry the induced lattices.  Given the fan
    itself, `oracle.s_enumerate` scans every face too and finds the same
    box about 35 times more slowly on coarsen's inputs."""
    rays = [set(sc.cone.rays) for sc in fan.cones]
    pieces = [
        sc for sc, own in zip(fan.cones, rays) if not any(own < other for other in rays)
    ]
    return MIN.MinimalFan(fan.ambient_rank, tuple(pieces))


def round_trips(obj):
    text = SER.dumps(obj)
    return SER.dumps(SER.loads(text)[1]) == text


def check_coarsen(item, res):
    """Idempotence, S-set laws confirmed on a box, byte-stable documents."""
    out = []
    r = item["radius"]
    if res["again"].pieces != res["minimal"].pieces:
        out.append("minimal_fan is not idempotent")
    box = set(oracle.s_enumerate(res["minimal"], r))
    if box != set(oracle.s_enumerate(maximal_pieces(item["fan"]), r)):
        out.append("minimal fan and fan differ on the box")
    for i, m in enumerate(res["subs"]):
        if set(oracle.s_enumerate(m, r)) != box:
            out.append(f"stellar subdivision {i} changed the S-set on the box")
    if set(oracle.s_enumerate(res["root"], r)) == box:
        out.append("proper root left the S-set unchanged on the box")
    for m in [res["minimal"], res["root"]] + list(res["subs"]):
        if not round_trips(m):
            out.append("minimal fan document does not round-trip byte for byte")
            break
    return out


def check_crosscheck(item, res):
    """The symbolic verdict agrees with the box; a witness separates S-sets."""
    out = []
    box_equal = set(res["box1"]) == set(res["box2"])
    if res["equivalent"] != box_equal:
        out.append(f"verdict {res['equivalent']} but box verdict {box_equal}")
    if not res["equivalent"]:
        w = res["witness"]
        if w is None:
            out.append("no witness for an inequivalent pair")
        elif in_s_set(w, item["f1"].cones) == in_s_set(w, item["f2"].cones):
            out.append(f"witness {w} does not lie in exactly one S-set")
    return out


def check_translation(item, res):
    """Known verdicts and cell counts; sampled translations by brute force."""
    kind, k, call = item["kind"], item["k"], item["call"]
    got = res[call]
    name = f"{kind} k={k} index {item['index']}"
    if call == "validate":
        if k == 1 and not any(v.startswith("(5)") for v in got):
            return [f"{name} not flagged with a (5) violation"]
        if k > 1 and got:
            return [f"{name} reported violations {got[:2]}"]
    elif call == "complete":
        # For k = 1 too: the translates of its cones cover the admissible region.
        if got is not True:
            return [f"{name} not complete"]
    elif call == "quotient":
        want = {0: 1, 1: k, 2: k} if kind == "tate" else {0: 1, 1: k * k, 2: 3 * k * k, 3: 2 * k * k}
        if got != want:
            return [f"{name} quotient cells {got}, want {want}"]
        euler = sum((-1) ** (d - 1) * n for d, n in got.items() if d > 0)
        if euler != 0:
            return [f"{name} quotient Euler characteristic {euler}"]
    elif call == "minimal":
        if got is not True:
            return [f"{name} not equivalent to its av_minimal"]
    elif call == "reference":
        if got is not (item["index"] == 1):
            return [f"{name}: equivalence to the index-1 two-arc fan is {got}"]
    else:
        out = []
        for (c1, c2), ms in zip(item["pairs"], got):
            want = tuple(oracle.translations_bruteforce(c1, c2, item["fan"].base, item["bound"]))
            if ms != want:
                out.append(f"candidate_translations {ms} != brute force {want}")
        return out
    return []


CHECKS = {
    "coarsen": check_coarsen,
    "crosscheck": check_crosscheck,
    "translation": check_translation,
}
