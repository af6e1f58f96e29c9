"""Per-layer tracing for the traced run, applied from outside the library.

Each listed public function is rebound, for the traced run only, in every
`tropfan` module whose namespace holds it: several modules import helpers
by name (`cones` and `semiabelian` take `_linalg` functions, `lattice`
takes `hnf`), so patching the defining module alone would miss their
calls.  Spans are aggregated in memory per (function, wrapped parent):
calls, total time and self time, the span's time minus the time of the
wrapped calls made inside it.
"""

import json
import sys
import time

import tropfan
import tropfan._linalg

LAYERS = {
    "_linalg": ["hnf_with_transform", "rational_solve", "rational_rank", "lp_feasible", "is_psd"],
    "lattice": ["canonicalize", "saturate", "intersect", "member", "index_in"],
    "cones": [
        "from_rays", "halfspace_slice", "intersect_cones", "faces", "contains_point",
        "cone_covered_by", "split_by_hyperplanes",
    ],
    "fans": [
        "validate", "is_complete", "maximal_cones", "fan_from_maximal",
        "stellar_subdivision", "supports_equal",
    ],
    "minimal": ["minimal_fan", "s_sets_equal", "s_witness"],
    "semiabelian": [
        "candidate_translations", "translate", "validate_av_fan", "av_complete",
        "quotient_complex", "av_minimal", "av_bir_equivalent",
    ],
    "oracle": ["s_enumerate"],
    "serialize": ["loads", "dumps"],
}

def metric_prefix(module, fn):
    """Metric names start with a letter, so `_linalg` is reported as `linalg`."""
    return f"{module.lstrip('_')}.{fn}"


class Tracer:
    """Wraps the listed functions; records only while `active` is true."""

    def __init__(self):
        self.active = False
        self.stack = []  # [name, child time, maximal pieces seen] per open span
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = {"split_cells": 0, "accepted": 0, "points": 0, "pieces_in": 0, "pieces_out": 0}
        self._patched = []

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("tropfan.")]
        for module, fns in LAYERS.items():
            home = getattr(tropfan, module)
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", original)
                for mod in modules:
                    if getattr(mod, fn, None) is original:
                        self._patched.append((mod, fn, original))
                        setattr(mod, fn, wrapper)

    def uninstall(self):
        for mod, fn, original in reversed(self._patched):
            setattr(mod, fn, original)
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = tracer.spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            tracer._count(name, parent, args, result, frame)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, parent, args, result, frame):
        c = self.counts
        if name == "cones.split_by_hyperplanes":
            c["split_cells"] += len(result)
        elif name == "semiabelian.candidate_translations":
            c["accepted"] += len(result)
        elif name == "oracle.s_enumerate":
            c["points"] += (2 * args[1] + 1) ** args[0].ambient_rank
        elif name == "fans.maximal_cones" and parent == "minimal.minimal_fan":
            self.stack[-1][2] = len(result)
        elif name == "minimal.minimal_fan":
            pieces = args[0].pieces if isinstance(args[0], tropfan.minimal.MinimalFan) else ()
            c["pieces_in"] += len(pieces) or frame[2]
            c["pieces_out"] += len(result.pieces)

    def calls_under(self, name, parent):
        rec = self.spans.get((name, parent))
        return rec[0] if rec else 0

    def metrics(self):
        """{metric name: (value, unit)} of everything recorded so far."""
        totals = {}
        for (name, _), (calls, _, self_s) in self.spans.items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        out = {}
        for module, fns in LAYERS.items():
            for fn in fns:
                calls, self_s = totals.get(f"{module}.{fn}", (0, 0.0))
                prefix = metric_prefix(module, fn)
                out[f"{prefix}.calls"] = (calls, "count")
                out[f"{prefix}.self_s"] = (self_s, "s")
        c = self.counts
        under = self.calls_under
        out["cones.split_by_hyperplanes.cells"] = (c["split_cells"], "count")
        out["minimal.merges_tried"] = (under("cones.intersect_cones", "minimal.minimal_fan"), "count")
        out["minimal.merges_kept"] = (c["pieces_in"] - c["pieces_out"], "count")
        out["semiabelian.candidates_scanned"] = (
            under("cones.intersect_cones", "semiabelian.candidate_translations"), "count")
        out["semiabelian.candidates_accepted"] = (c["accepted"], "count")
        out["oracle.points_scanned"] = (c["points"], "count")
        return out

    def write(self, path):
        """The span aggregates as `name <- parent`: [calls, total_s, self_s]."""
        spans = {f"{n} <- {p}": rec for (n, p), rec in self.spans.items()}
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh, indent=1, sort_keys=True)


def _ratio(a, b):
    return a / b if b else 0.0


def per_round(at_setup, at_end, rounds):
    """Set-up once plus one round: the timed totals divided by the rounds,
    which all repeat the same operations, and the work/waste ratios."""
    out = {}
    for name, (value, unit) in at_end.items():
        v = at_setup[name][0] + (value - at_setup[name][0]) / rounds
        out[name] = (int(v) if unit == "count" and v == int(v) else v, unit)
    out["minimal.merge_keep_ratio"] = (
        _ratio(out["minimal.merges_kept"][0], out["minimal.merges_tried"][0]), "ratio")
    out["semiabelian.candidate_hit_ratio"] = (
        _ratio(out["semiabelian.candidates_accepted"][0],
               out["semiabelian.candidates_scanned"][0]), "ratio")
    return out
