"""Command-line interface.

Exit codes: 0 ok/true, 1 false/violation, 2 parse error, 3 incompatible
inputs, 4 unsupported operation.
"""

import argparse
import sys

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from . import oracle
from . import render as R
from . import semiabelian as S
from . import serialize as SER

OK, FAIL, PARSE, INCOMPATIBLE, UNSUPPORTED = 0, 1, 2, 3, 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        return SER.load_path(path)
    except OSError as exc:
        raise CliError(PARSE, f"cannot read {path}: {exc}")
    except SER.ParseError as exc:
        raise CliError(PARSE, f"{path}: {exc}")


def _load_kind(path, kinds):
    kind, obj = _load(path)
    if kind not in kinds:
        raise CliError(INCOMPATIBLE, f"{path}: expected {' or '.join(kinds)}, got {kind}")
    return kind, obj


def _emit(doc_text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(doc_text)
    else:
        sys.stdout.write(doc_text)


def cmd_validate(args):
    kind, obj = _load(args.file)
    if kind in ("stacky_fan",):
        violations = F.validate(obj)
    elif kind == "coloring":
        violations = MIN.validate_coloring(MIN.coloring_of(obj.pieces, obj.ambient_rank))
    elif kind == "polarized_base":
        violations = S.validate_form(obj)
    elif kind == "av_fan":
        violations = S.validate_av_fan(obj)
    else:
        raise CliError(UNSUPPORTED, "validate does not apply to graph documents")
    if violations:
        for v in violations:
            print(v)
        return FAIL
    print("ok")
    return OK


def cmd_minimal(args):
    kind, obj = _load_kind(args.file, ("stacky_fan", "coloring", "av_fan"))
    if kind == "stacky_fan":
        if F.validate(obj):
            raise CliError(FAIL, "input fan is invalid; run validate")
        result = MIN.minimal_fan(obj)
    elif kind == "coloring":
        result = MIN.minimal_fan(obj)
    else:
        if S.validate_av_fan(obj):
            raise CliError(FAIL, "input fan is invalid; run validate")
        result = S.av_minimal(obj)
    _emit(SER.dumps(result), args.out)
    return OK


def cmd_equiv(args):
    kind_a, a = _load(args.a)
    kind_b, b = _load(args.b)
    fan_kinds = ("stacky_fan", "coloring")
    if kind_a in fan_kinds and kind_b in fan_kinds:
        if a.ambient_rank != b.ambient_rank:
            raise CliError(INCOMPATIBLE, "ambient ranks differ")
        if MIN.birationally_equivalent(a, b):
            print("equivalent")
            return OK
        witness = MIN.s_witness(
            a if isinstance(a, MIN.MinimalFan) else MIN.minimal_fan(a),
            b if isinstance(b, MIN.MinimalFan) else MIN.minimal_fan(b),
        )
        print(f"inequivalent witness {' '.join(str(x) for x in witness)}")
        return FAIL
    if kind_a == "av_fan" and kind_b == "av_fan":
        try:
            eq = S.av_bir_equivalent(a, b)
        except S.IncompatibleBaseError as exc:
            raise CliError(INCOMPATIBLE, str(exc))
        print("equivalent" if eq else "inequivalent")
        return OK if eq else FAIL
    raise CliError(INCOMPATIBLE, f"cannot compare {kind_a} with {kind_b}")


def _two_fans(args):
    _, fine = _load_kind(args.fine, ("stacky_fan",))
    _, coarse = _load_kind(args.coarse, ("stacky_fan",))
    if fine.ambient_rank != coarse.ambient_rank:
        raise CliError(INCOMPATIBLE, "ambient ranks differ")
    return fine, coarse


def cmd_subdivision(args):
    fine, coarse = _two_fans(args)
    ok = F.is_subdivision(fine, coarse)
    print("true" if ok else "false")
    return OK if ok else FAIL


def cmd_proper(args):
    fine, coarse = _two_fans(args)
    ok = F.is_proper(F.FanMorphismData(fine, coarse))
    print("true" if ok else "false")
    return OK if ok else FAIL


def cmd_representable(args):
    fine, coarse = _two_fans(args)
    ok = F.is_representable(F.FanMorphismData(fine, coarse))
    print("true" if ok else "false")
    return OK if ok else FAIL


def cmd_complete(args):
    kind, obj = _load_kind(args.file, ("stacky_fan", "coloring", "av_fan"))
    if kind == "stacky_fan":
        ok = F.is_complete(obj)
    elif kind == "coloring":
        ok = MIN.coloring_is_complete(obj)
    else:
        ok = S.av_complete(obj)
    print("true" if ok else "false")
    return OK if ok else FAIL


def cmd_quotient(args):
    _, fan = _load_kind(args.file, ("av_fan",))
    violations = S.validate_av_fan(fan)
    if violations:
        raise CliError(FAIL, "; ".join(violations))
    try:
        qc = S.quotient_complex(fan)
    except S.NormalizationError as exc:
        raise CliError(FAIL, str(exc))
    import json

    cells = [
        {
            "rays": [[str(x) for x in r] for r in c.cone.rays],
            "lattice": [[str(x) for x in b] for b in c.lattice.basis],
        }
        for c in qc.cells
    ]
    face_maps = [
        {"source": str(i), "target": str(j), "m": [str(x) for x in m]}
        for i, j, m in qc.face_maps
    ]
    doc = {
        "schema_version": SER.SCHEMA_VERSION,
        "kind": "quotient_complex",
        "payload": {"cells": cells, "face_maps": face_maps},
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return OK


def cmd_jacobian(args):
    _, graph = _load_kind(args.file, ("graph",))
    num_vertices, edges, base_cone, torus_rank = graph
    try:
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
    except S.ConnectivityError as exc:
        raise CliError(INCOMPATIBLE, str(exc))
    _emit(SER.dumps(base), args.out)
    return OK


def cmd_refine(args):
    _, a = _load_kind(args.a, ("stacky_fan",))
    _, b = _load_kind(args.b, ("stacky_fan",))
    try:
        refined = F.common_refinement(a, b)
    except F.SupportMismatchError as exc:
        raise CliError(INCOMPATIBLE, str(exc))
    except L.DimensionError as exc:
        raise CliError(INCOMPATIBLE, str(exc))
    _emit(SER.dumps(refined), args.out)
    return OK


def cmd_render(args):
    kind, obj = _load_kind(args.file, ("stacky_fan", "coloring"))
    try:
        svg = R.render_svg(obj, radius=args.radius)
    except R.RankError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    _emit(svg, args.out)
    return OK


def cmd_oracle(args):
    if args.oracle_cmd == "s-enumerate":
        kind, obj = _load_kind(args.file, ("stacky_fan", "coloring"))
        points = oracle.s_enumerate(obj, args.radius)
        for p in points:
            print(" ".join(str(x) for x in p))
        print(f"count {len(points)}")
        return OK
    if args.oracle_cmd == "cover-sample":
        kind, obj = _load_kind(args.file, ("stacky_fan", "av_fan"))
        if kind == "stacky_fan":
            covered, total = oracle.cover_sample_fan(obj, args.count, args.seed)
        else:
            covered, total = oracle.cover_sample_av(obj, args.count, args.seed)
        print(f"covered {covered}/{total}")
        return OK if covered == total else FAIL
    if args.oracle_cmd == "translations-bruteforce":
        _, fan = _load_kind(args.file, ("av_fan",))
        tops = sorted(
            (sc for sc in fan.representatives if sc.dim > 0),
            key=lambda sc: (-sc.dim, sc.cone.rays),
        )
        if args.cells:
            i, j = args.cells
            reps = sorted(fan.representatives, key=lambda sc: (sc.dim, sc.cone.rays))
            c1, c2 = reps[i], reps[j]
        else:
            if len(tops) < 2:
                raise CliError(INCOMPATIBLE, "need at least two positive cells")
            c1, c2 = tops[0], tops[1]
        found = oracle.translations_bruteforce(c1, c2, fan.base, args.bound)
        for m in found:
            print(" ".join(str(x) for x in m))
        return OK
    raise CliError(UNSUPPORTED, f"unknown oracle subcommand {args.oracle_cmd}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropfan",
        description="Exact computations with stacky fans and tropical "
        "semiabelian compactifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("minimal", help="coarsening by greedy wall merging")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("equiv", help="birational equivalence of two documents")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_equiv)

    for name, func in (
        ("subdivision", cmd_subdivision),
        ("proper", cmd_proper),
        ("representable", cmd_representable),
    ):
        p = sub.add_parser(name, help=f"{name} test for a fan morphism")
        p.add_argument("fine")
        p.add_argument("coarse")
        p.set_defaults(func=func)

    p = sub.add_parser("complete", help="completeness test")
    p.add_argument("file")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("quotient", help="quotient complex of a translation fan")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("jacobian", help="polarized base of a metrized graph")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("refine", help="common refinement of two fans")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("render", help="SVG rendering (rank 2 only)")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--radius", type=int, default=4)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="brute-force cross-check oracles")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("s-enumerate")
    q.add_argument("file")
    q.add_argument("--radius", type=int, default=5)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("cover-sample")
    q.add_argument("file")
    q.add_argument("--count", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("translations-bruteforce")
    q.add_argument("file")
    q.add_argument("--bound", type=int, default=10)
    q.add_argument("--cells", type=int, nargs=2)
    q.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except S.DefinitenessRequiredError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
