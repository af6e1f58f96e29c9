"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each checker is handed one planted wrong result and must count it as a
failed operation that makes the run incorrect; each workload runs at a
tiny size and must print every metric that BENCHMARK.json names, with its
unit.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _plant_coarsen(res):
    res["subs"][0] = res["root"]  # a subdivision that changed the S-set


def _plant_crosscheck(res):
    res["equivalent"] = not res["equivalent"]


def _plant_translation(res):
    # The last item samples candidate_translations on the k = 1 grid.
    res["candidates"] = [(("planted",),)] * len(res["candidates"])


PLANTS = {
    "coarsen": _plant_coarsen,
    "crosscheck": _plant_crosscheck,
    "translation": _plant_translation,
}


@pytest.mark.parametrize("workload", sorted(PLANTS))
def test_planted_wrong_result_counts_as_failed(workload):
    items = workloads.make_inputs(workload, 1, "tiny")
    op = workloads.OPS[workload]
    target = items[-1]

    def planted_op(item):
        res = op(item)
        if item is target:
            PLANTS[workload](res)
        return res

    state = run.Run()
    run.run_rounds(items, planted_op, checks.CHECKS[workload], 0, None, state)
    assert state.rounds == 1
    assert state.attempted == len(items)
    assert state.failed == 1
    assert run.result(state, {})["correct"] is False


@pytest.mark.parametrize("workload", sorted(PLANTS))
def test_raising_operation_counts_as_failed(workload):
    items = workloads.make_inputs(workload, 1, "tiny")[:1]

    def broken(item):
        raise ValueError("planted")

    state = run.Run()
    run.run_rounds(items, broken, checks.CHECKS[workload], 0, None, state)
    assert (state.attempted, state.failed) == (1, 1)
    assert run.result(state, {})["correct"] is False


def test_same_seed_same_inputs():
    a = workloads.make_inputs("crosscheck", 7, "tiny")
    b = workloads.make_inputs("crosscheck", 7, "tiny")
    assert [(i["f1"], i["f2"]) for i in a] == [(i["f1"], i["f2"]) for i in b]


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    a, b = _run("coarsen", 1)["metrics"], _run("coarsen", 1)["metrics"]
    counts = [n for n, m in a.items() if m["unit"] == "count"]
    assert counts and all(a[n]["value"] == b[n]["value"] for n in counts)
