"""Command-line interface.

Exit codes: 0 ok/true, 1 false/violation, 2 parse error, 3 incompatible
inputs, 4 unsupported operation.
"""

import argparse
import sys

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


# The violation strings (empty when valid) of each document kind that
# `validate` applies to, keyed by the kind `_load` returns.
VALIDATORS = {
    "stacky_fan": F.validate,
    "coloring": lambda m: MIN.validate_coloring(MIN.coloring_of(m.pieces, m.ambient_rank)),
    "polarized_base": S.validate_form,
    "av_fan": S.validate_av_fan,
}


def _require_valid(violations, *objs):
    """Refuse, with exit 1, when `violations` finds a fault in any of the
    objects, tested in order up to the first faulty one."""
    if any(violations(obj) for obj in objs):
        raise CliError(FAIL, "input fan is invalid; run validate")


def _verdict(ok):
    print("true" if ok else "false")
    return OK if ok else FAIL


def cmd_validate(args):
    kind, obj = _load(args.file)
    if kind not in VALIDATORS:
        raise CliError(UNSUPPORTED, f"validate does not apply to {kind} documents")
    violations = VALIDATORS[kind](obj)
    print("\n".join(violations) or "ok")
    return FAIL if violations else OK


def cmd_minimal(args):
    kind, obj = _load_kind(args.file, ("stacky_fan", "coloring", "av_fan"))
    _require_valid(VALIDATORS[kind], obj)
    result = S.av_minimal(obj) if kind == "av_fan" else MIN.minimal_fan(obj)
    _emit(SER.dumps(result), args.out)
    return OK


def cmd_equiv(args):
    kind_a, a = _load(args.a)
    kind_b, b = _load(args.b)
    fan_kinds = ("stacky_fan", "coloring")
    if kind_a in fan_kinds and kind_b in fan_kinds:
        if a.ambient_rank != b.ambient_rank:
            raise CliError(INCOMPATIBLE, "ambient ranks differ")
        _require_valid(VALIDATORS[kind_a], a)
        _require_valid(VALIDATORS[kind_b], b)
        # Coarsening keeps the S-set, so one comparison of the minimal
        # fans gives both the verdict and the witness.
        witness = MIN.s_witness(
            a if kind_a == "coloring" else MIN.minimal_fan(a),
            b if kind_b == "coloring" else MIN.minimal_fan(b),
        )
        if witness is None:
            print("equivalent")
            return OK
        print(f"inequivalent witness {' '.join(str(x) for x in witness)}")
        return FAIL
    if kind_a == "av_fan" and kind_b == "av_fan":
        _require_valid(S.local_violations, a, b)
        try:
            eq = S.av_bir_equivalent(a, b)
        except S.IncompatibleBaseError as exc:
            raise CliError(INCOMPATIBLE, str(exc))
        print("equivalent" if eq else "inequivalent")
        return OK if eq else FAIL
    raise CliError(INCOMPATIBLE, f"cannot compare {kind_a} with {kind_b}")


MORPHISM_TESTS = {
    "subdivision": lambda m: F.is_subdivision(m.source, m.target),
    "proper": F.is_proper,
    "representable": F.is_representable,
}


def cmd_morphism(args):
    _, fine = _load_kind(args.fine, ("stacky_fan",))
    _, coarse = _load_kind(args.coarse, ("stacky_fan",))
    if fine.ambient_rank != coarse.ambient_rank:
        raise CliError(INCOMPATIBLE, "ambient ranks differ")
    return _verdict(MORPHISM_TESTS[args.command](F.FanMorphismData(fine, coarse)))


def cmd_complete(args):
    kind, obj = _load_kind(args.file, ("stacky_fan", "coloring", "av_fan"))
    if kind == "stacky_fan":
        return _verdict(F.is_complete(obj))
    if kind == "coloring":
        return _verdict(MIN.coloring_is_complete(obj))
    _require_valid(S.local_violations, obj)
    return _verdict(S.av_complete(obj))


def cmd_quotient(args):
    _, fan = _load_kind(args.file, ("av_fan",))
    violations = S.validate_av_fan(fan)
    if violations:
        raise CliError(FAIL, "; ".join(violations))
    try:
        qc = S.quotient_complex(fan)
    except S.NormalizationError as exc:
        raise CliError(FAIL, str(exc))
    _emit(SER.dumps(qc), args.out)
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
    _, obj = _load_kind(args.file, ("stacky_fan", "coloring"))
    try:
        svg = R.render_svg(obj, radius=args.radius)
    except R.RankError as exc:
        raise CliError(UNSUPPORTED, str(exc))
    _emit(svg, args.out)
    return OK


def cmd_oracle(args):
    if args.oracle_cmd == "s-enumerate":
        _, obj = _load_kind(args.file, ("stacky_fan", "coloring"))
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
            _require_valid(S.local_violations, obj)
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
            reps = fan.representatives
            for k in args.cells:
                if not 0 <= k < len(reps):
                    raise CliError(
                        INCOMPATIBLE, f"cell index {k} is outside 0..{len(reps) - 1}"
                    )
            c1, c2 = (reps[k] for k in args.cells)
        else:
            if len(tops) < 2:
                raise CliError(INCOMPATIBLE, "need at least two positive cells")
            c1, c2 = tops[0], tops[1]
        found = oracle.translations_bruteforce(c1, c2, fan.base, args.bound)
        for m in found:
            print(" ".join(str(x) for x in m))
        return OK
    raise CliError(UNSUPPORTED, f"unknown oracle subcommand {args.oracle_cmd}")


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


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

    for name in MORPHISM_TESTS:
        p = sub.add_parser(name, help=f"{name} test for a fan morphism")
        p.add_argument("fine")
        p.add_argument("coarse")
        p.set_defaults(func=cmd_morphism)

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
    p.add_argument("--radius", type=nonnegative_int, default=4)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="brute-force cross-check oracles")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("s-enumerate")
    q.add_argument("file")
    q.add_argument("--radius", type=nonnegative_int, default=5)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("cover-sample")
    q.add_argument("file")
    q.add_argument("--count", type=nonnegative_int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("translations-bruteforce")
    q.add_argument("file")
    q.add_argument("--bound", type=nonnegative_int, default=10)
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
