"""The benchmark's three workloads: inputs from a seed, the timed
operation, and the check of its result.

An operation is one item of the workload's input pool; a round is one pass
over the pool.  Each pool follows a fixed schedule of input kinds and
sizes, and the seed draws the inputs within each kind, so that rounds of
different seeds cost about the same.
"""

import random

import tropfan.minimal as MIN
import tropfan.oracle as oracle
import tropfan.semiabelian as S
import tropfan.serialize as SER

import gen

# coarsen: (kind, parameter, count) per pool; the parameter is the number of
# extra rays for rank-2 fans and the number of orthants for rank 3 and 4.
COARSEN_SCHEDULE = {
    "full": [
        ("complete2", 0, 3), ("complete2", 1, 3), ("complete2", 2, 3),
        ("complete2", 3, 3), ("complete2", 4, 3), ("partial2", 1, 2),
        ("partial2", 2, 2), ("partial2", 3, 2), ("orthant3", 1, 2),
        ("orthant3", 2, 2), ("orthant3", 3, 2), ("orthant3", 4, 2),
        ("orthant4", 1, 1),
    ],
    "tiny": [("complete2", 2, 1), ("partial2", 1, 1), ("orthant3", 2, 1)],
}
COARSEN_ROOT = 5  # > every lattice index (≤ 4), so the root is always proper
COARSEN_RADIUS = 4  # idx·e_i ∈ S(fan) \ S(root) lies in this box

# crosscheck: (kind, parameter, pair style) per pool, kinds as for coarsen,
# and the oracle box radius per kind.
STYLES = ("subdivision", "root", "independent")
CROSSCHECK_SCHEDULE = {
    "full": [("complete2", extra, style) for style in STYLES for extra in range(5)]
    + [("orthant3", orthants, style) for style in STYLES for orthants in range(1, 4)],
    "tiny": [("complete2", 1, "subdivision"), ("complete2", 2, "root"),
             ("orthant3", 2, "independent")],
}
# The box must show every inequivalence the symbolic test finds.  Orthant
# fans carry Z^3, so theirs show at ±e_i or sums of them; inequivalent
# rank-2 pairs showed one within radius 4 in 1500 seeded trials.
CROSSCHECK_RADIUS = {"complete2": 8, "orthant3": 4}

# translation: Tate k-arc fans by lattice index, and the g = 2 grids.
TRANSLATION_SCHEDULE = {
    "full": {"tate": {1: [1, 2, 3, 4], 2: [2, 3]}, "grid": [1, 2]},
    "tiny": {"tate": {1: [1, 2], 2: [2]}, "grid": [1]},
}
TRANSLATION_PAIRS = 2  # sampled candidate_translations checks per fan
TRANSLATION_BOUND = 5  # brute-force box; shifts stay within ±1


def _through_documents(obj):
    """Encode as a document and decode it again, as every CLI call does."""
    return SER.loads(SER.dumps(obj))[1]


def _random_fan(rng, kind, param):
    if kind == "complete2":
        return gen.complete_fan2(rng, param)
    if kind == "partial2":
        return gen.partial_fan2(rng, param)
    return gen.orthant_fan(rng, 3 if kind == "orthant3" else 4, param)


def coarsen_inputs(rng, size):
    items = []
    for kind, param, count in COARSEN_SCHEDULE[size]:
        for _ in range(count):
            fan = _random_fan(rng, kind, param)
            subs = [gen.stellar(rng, fan) for _ in range(3)]
            root = gen.global_root(fan, COARSEN_ROOT)
            items.append({
                "fan": _through_documents(fan),
                "subs": [_through_documents(s) for s in subs],
                "root": _through_documents(root),
                "radius": COARSEN_RADIUS,
            })
    return items


def coarsen_op(item):
    m = MIN.minimal_fan(item["fan"])
    return {
        "minimal": m,
        "subs": [MIN.minimal_fan(s) for s in item["subs"]],
        "root": MIN.minimal_fan(item["root"]),
        "again": MIN.minimal_fan(m),
    }


def crosscheck_inputs(rng, size):
    items = []
    for kind, param, style in CROSSCHECK_SCHEDULE[size]:
        f1 = _random_fan(rng, kind, param)
        if style == "subdivision":
            f2 = gen.stellar(rng, f1)
        elif style == "root":
            f2 = gen.global_root(f1, rng.choice([2, 3, 5]))
        else:
            f2 = _random_fan(rng, kind, param)
        items.append({
            "f1": _through_documents(f1),
            "f2": _through_documents(f2),
            "radius": CROSSCHECK_RADIUS[kind],
        })
    return items


def crosscheck_op(item):
    f1, f2, r = item["f1"], item["f2"], item["radius"]
    equivalent = MIN.birationally_equivalent(f1, f2)
    return {
        "equivalent": equivalent,
        "witness": None if equivalent else MIN.s_witness(f1, f2),
        "box1": oracle.s_enumerate(f1, r),
        "box2": oracle.s_enumerate(f2, r),
    }


def _shifts(rng, count):
    return [rng.randint(-1, 1) for _ in range(count)]


def _sample_pairs(rng, fan):
    reps = [sc for sc in fan.representatives if sc.dim > 0]
    return [(rng.choice(reps), rng.choice(reps)) for _ in range(TRANSLATION_PAIRS)]


def translation_inputs(rng, size):
    """One item per decision call on each fan, so that the reference loop
    also runs between the long calls on the k = 2 grid."""
    schedule = TRANSLATION_SCHEDULE[size]
    reference = _through_documents(gen.tate_arc_fan(2, 1, _shifts(rng, 4)))
    fans = []
    for index, ks in schedule["tate"].items():
        for k in ks:
            fan = _through_documents(gen.tate_arc_fan(k, index, _shifts(rng, 2 * k)))
            fans.append({"kind": "tate", "k": k, "index": index, "fan": fan})
    for k in schedule["grid"]:
        fans.append({"kind": "grid", "k": k, "index": 1, "fan": _through_documents(gen.torus_grid_fan(k))})
    items = []
    for f in fans:
        calls = ["validate", "complete", "candidates"]
        if f["k"] >= 2:
            calls.append("quotient")
        if f["k"] >= 2 and f["kind"] == "tate":
            calls += ["minimal", "reference"]
        pairs = _sample_pairs(rng, f["fan"])
        for call in calls:
            items.append({**f, "call": call, "pairs": pairs, "bound": TRANSLATION_BOUND,
                          "reference": reference})
    return items


TRANSLATION_CALLS = {
    "validate": lambda item: S.validate_av_fan(item["fan"]),
    "complete": lambda item: S.av_complete(item["fan"]),
    "quotient": lambda item: S.quotient_complex(item["fan"]).cells_by_dim(),
    "minimal": lambda item: S.av_bir_equivalent(item["fan"], S.av_minimal(item["fan"])),
    "reference": lambda item: S.av_bir_equivalent(item["fan"], item["reference"]),
    "candidates": lambda item: [
        S.candidate_translations(c1, c2, item["fan"].base) for c1, c2 in item["pairs"]
    ],
}


def translation_op(item):
    return {item["call"]: TRANSLATION_CALLS[item["call"]](item)}


INPUTS = {
    "coarsen": coarsen_inputs,
    "crosscheck": crosscheck_inputs,
    "translation": translation_inputs,
}
OPS = {"coarsen": coarsen_op, "crosscheck": crosscheck_op, "translation": translation_op}


def make_inputs(workload, seed, size="full"):
    """The workload's input pool for a seed: same seed, same inputs."""
    return INPUTS[workload](random.Random(f"{workload}:{seed}"), size)
