import json

import pytest

import tropfan.cli as cli
import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.render as R
import tropfan.semiabelian as S
import tropfan.serialize as SER
from conftest import FIXTURES

import _gen

ALL_FIXTURES = [
    "delta_fig.json",
    "delta_fig_bad.json",
    "hirzebruch.json",
    "loop_graph.json",
    "p2.json",
    "path_graph.json",
    "quadrant.json",
    "split_quadrant.json",
    "tate_one_arc.json",
    "tate_three_arc.json",
    "tate_two_arc.json",
    "tate_two_arc_idx2.json",
    "theta_graph.json",
    "trivial.json",
    "zero_loop_graph.json",
]


ORACLE_GOLDENS = sorted(
    str(p.relative_to(FIXTURES / "oracle")) for p in (FIXTURES / "oracle").rglob("*.json")
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSerialize:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_stable(self, name, fx):
        with open(fx(name)) as fh:
            text = fh.read()
        kind, obj = SER.loads(text)
        assert SER.dumps(obj) == text
        assert SER.dumps(SER.loads(SER.dumps(obj))[1]) == text

    def test_malformed_json(self, fx):
        with pytest.raises(SER.ParseError, match="line"):
            SER.load_path(fx("malformed.json"))

    def test_unknown_kind(self):
        with pytest.raises(SER.ParseError, match="kind"):
            SER.loads(json.dumps({"schema_version": "1", "kind": "nope", "payload": {}}))

    def test_bad_schema_version(self):
        with pytest.raises(SER.ParseError, match="schema_version"):
            SER.loads(json.dumps({"schema_version": "2", "kind": "stacky_fan", "payload": {}}))

    def test_non_integer_entry(self):
        doc = {
            "schema_version": "1",
            "kind": "stacky_fan",
            "payload": {"ambient_rank": "2", "cones": [{"rays": [["x", "0"]], "lattice": [["1", "0"]]}]},
        }
        with pytest.raises(SER.ParseError, match="integer"):
            SER.loads(json.dumps(doc))


class TestValidateCommand:
    def test_valid(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx("delta_fig.json"))
        assert code == 0 and out.strip() == "ok"

    def test_invalid(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx("delta_fig_bad.json"))
        assert code == 1
        assert "lattice incompatibility" in out

    def test_parse_error(self, capsys, fx):
        code, _, err = run(capsys, "validate", fx("malformed.json"))
        assert code == 2 and err

    def test_missing_file(self, capsys, fx):
        code, _, err = run(capsys, "validate", fx("does_not_exist.json"))
        assert code == 2 and err

    def test_av_fan(self, capsys, fx):
        code, out, _ = run(capsys, "validate", fx("tate_two_arc.json"))
        assert code == 0 and out.strip() == "ok"
        code, out, _ = run(capsys, "validate", fx("tate_one_arc.json"))
        assert code == 1 and "(5)" in out

    def test_graph_unsupported(self, capsys, fx):
        code, _, err = run(capsys, "validate", fx("theta_graph.json"))
        assert code == 4

    @pytest.mark.parametrize(
        "edit",
        [
            # A cone containing the line R·(1, 0).
            lambda p: p["cones"].append({"lattice": [["1", "0"]], "rays": [["1", "0"], ["-1", "0"]]}),
            # A ray of length 3 in ambient rank 2.
            lambda p: p["cones"][1]["rays"][0].append("0"),
            lambda p: p.update(ambient_rank="-1"),
        ],
        ids=["non_pointed", "ray_length", "negative_rank"],
    )
    def test_decode_error_is_parse_error(self, capsys, fx, tmp_path, edit):
        with open(fx("quadrant.json")) as fh:
            doc = json.load(fh)
        edit(doc["payload"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "malformed stacky_fan payload" in err

    def test_singular_gram_unsupported(self, capsys, fx, tmp_path):
        """Slopes over a base ray with a singular Gram matrix are unsupported."""
        two = SER.load_path(fx("tate_two_arc.json"))[1]

        def embed(v, slot):
            return (v[0], 0, v[1], 0) if slot == 0 else (0, v[0], 0, v[1])

        reps = []
        for s1 in two.representatives:
            for s2 in two.representatives:
                rays = [embed(r, 0) for r in s1.cone.rays] + [embed(r, 1) for r in s2.cone.rays]
                lat = [embed(b, 0) for b in s1.lattice.basis] + [
                    embed(b, 1) for b in s2.lattice.basis
                ]
                cone = C.from_rays(rays, 4) if rays else C.zero_cone(4)
                reps.append(F.StackyCone(cone, L.canonicalize(lat, 4)))
        e = [(1, 0), (0, 1)]
        q = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
        base = S.PolarizedBase(F.stacky_cone(e, e, 2), 2, q, 0)
        assert S.validate_form(base) == []
        path = tmp_path / "product.json"
        path.write_text(SER.dumps(S.av_fan(base, reps)))
        for cmd in ("validate", "complete"):
            code, _, err = run(capsys, cmd, str(path))
            assert code == 4
            assert len(err.strip().splitlines()) == 1 and "singular" in err


class TestEquivCommand:
    def test_equivalent(self, capsys, fx):
        code, out, _ = run(capsys, "equiv", fx("p2.json"), fx("hirzebruch.json"))
        assert code == 0 and out.strip() == "equivalent"

    def test_self_equivalent(self, capsys, fx):
        code, out, _ = run(capsys, "equiv", fx("delta_fig.json"), fx("delta_fig.json"))
        assert code == 0

    def test_inequivalent_with_witness(self, capsys, fx):
        code, out, _ = run(capsys, "equiv", fx("delta_fig.json"), fx("trivial.json"))
        assert code == 1
        assert out.startswith("inequivalent witness ")
        w = tuple(int(x) for x in out.split()[2:])
        _, delta = SER.load_path(fx("delta_fig.json"))
        _, trivial = SER.load_path(fx("trivial.json"))
        in_a = _gen.minimal_set_member(w, MIN.minimal_fan(delta))
        in_b = _gen.minimal_set_member(w, MIN.minimal_fan(trivial))
        assert in_a != in_b

    def test_kind_mismatch(self, capsys, fx):
        code, _, err = run(capsys, "equiv", fx("p2.json"), fx("theta_graph.json"))
        assert code == 3

    def test_av_equivalent(self, capsys, fx):
        code, out, _ = run(capsys, "equiv", fx("tate_two_arc.json"), fx("tate_three_arc.json"))
        assert code == 0 and out.strip() == "equivalent"
        code, out, _ = run(capsys, "equiv", fx("tate_two_arc.json"), fx("tate_two_arc_idx2.json"))
        assert code == 1


class TestPredicateCommands:
    def test_subdivision(self, capsys, fx):
        code, out, _ = run(capsys, "subdivision", fx("split_quadrant.json"), fx("quadrant.json"))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "subdivision", fx("quadrant.json"), fx("split_quadrant.json"))
        assert code == 1 and out.strip() == "false"

    def test_proper_and_representable(self, capsys, fx):
        for cmd in ("proper", "representable"):
            code, out, _ = run(capsys, cmd, fx("split_quadrant.json"), fx("quadrant.json"))
            assert code == 0 and out.strip() == "true"

    def test_complete(self, capsys, fx):
        code, out, _ = run(capsys, "complete", fx("trivial.json"))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "complete", fx("quadrant.json"))
        assert code == 1 and out.strip() == "false"
        code, out, _ = run(capsys, "complete", fx("tate_two_arc.json"))
        assert code == 0


class TestDocumentCommands:
    def test_minimal_emits_coloring(self, capsys, fx):
        code, out, _ = run(capsys, "minimal", fx("delta_fig.json"))
        assert code == 0
        kind, obj = SER.loads(out)
        assert kind == "coloring"
        assert len(obj.pieces) == 3

    def test_minimal_idempotent_bytes(self, capsys, fx, tmp_path):
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert cli.main(["minimal", fx("delta_fig.json"), "--out", str(first)]) == 0
        assert cli.main(["minimal", str(first), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "name",
        ["delta_fig", "hirzebruch", "p2", "quadrant", "split_quadrant", "trivial",
         "tate_three_arc", "tate_two_arc", "tate_two_arc_idx2"],
    )
    def test_minimal_golden(self, capsys, fx, name):
        # fixtures/minimal/ holds the output recorded byte for byte before
        # the local wall-merge test replaced the arrangement check, so a
        # change in merge order or in a merge decision shows here.
        code, out, _ = run(capsys, "minimal", fx(f"{name}.json"))
        assert code == 0
        with open(fx(f"minimal/{name}.json")) as fh:
            assert out == fh.read()

    @pytest.mark.parametrize(
        "name", ["tate_one_arc", "tate_three_arc", "tate_two_arc", "tate_two_arc_idx2"]
    )
    @pytest.mark.parametrize("cmd", ["validate", "complete", "quotient"])
    def test_av_golden(self, capsys, fx, name, cmd):
        # fixtures/av/ holds exit code, stdout and stderr recorded before
        # the translation scan read intersections from affine ray values.
        with open(fx(f"av/{name}.json")) as fh:
            want = json.load(fh)[cmd]
        code, out, err = run(capsys, cmd, fx(f"{name}.json"))
        assert {"code": code, "stdout": out, "stderr": err} == want

    def test_minimal_rejects_invalid(self, capsys, fx):
        code, _, err = run(capsys, "minimal", fx("delta_fig_bad.json"))
        assert code == 1

    def test_quotient(self, capsys, fx):
        code, out, _ = run(capsys, "quotient", fx("tate_two_arc.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "quotient_complex"
        assert len(doc["payload"]["cells"]) == 5

    def test_quotient_invalid_fan(self, capsys, fx):
        code, _, err = run(capsys, "quotient", fx("tate_one_arc.json"))
        assert code == 1

    def test_jacobian(self, capsys, fx):
        code, out, _ = run(capsys, "jacobian", fx("theta_graph.json"))
        assert code == 0
        kind, base = SER.loads(out)
        assert kind == "polarized_base"
        assert base.m_rank == 2

    @pytest.mark.parametrize("endpoint", ["-2", "7"])
    def test_jacobian_bad_endpoint_is_parse_error(self, capsys, fx, tmp_path, endpoint):
        with open(fx("theta_graph.json")) as fh:
            doc = json.load(fh)
        doc["payload"]["edges"][1][1] = endpoint
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "jacobian", str(path))
        assert code == 2 and "outside 0..1" in err

    def test_refine(self, capsys, fx):
        code, out, _ = run(capsys, "refine", fx("p2.json"), fx("trivial.json"))
        assert code == 0
        kind, fan = SER.loads(out)
        assert kind == "stacky_fan"

    def test_refine_support_mismatch(self, capsys, fx):
        code, _, err = run(capsys, "refine", fx("quadrant.json"), fx("trivial.json"))
        assert code == 3


class TestRenderCommand:
    def test_golden_svg(self, capsys, fx):
        code, out, _ = run(capsys, "render", fx("delta_fig.json"))
        assert code == 0
        with open(fx("delta_fig.svg")) as fh:
            assert out == fh.read()

    def test_deterministic(self, capsys, fx):
        _, first, _ = run(capsys, "render", fx("trivial.json"))
        _, second, _ = run(capsys, "render", fx("trivial.json"))
        assert first == second
        assert first.startswith("<svg")

    def test_rank3_unsupported(self, capsys, tmp_path):
        import tropfan.fans as F

        fan = F.fan_from_maximal(
            [F.stacky_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                           [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)],
            3,
        )
        path = tmp_path / "rank3.json"
        _gen.dump_path(fan, str(path))
        code = cli.main(["render", str(path)])
        assert code == 4

    def test_render_svg_matches_module(self, fx):
        _, fan = SER.load_path(fx("trivial.json"))
        assert R.render_svg(fan) == R.render_svg(fan)


class TestOracleCommands:
    def test_s_enumerate(self, capsys, fx):
        code, out, _ = run(capsys, "oracle", "s-enumerate", fx("delta_fig.json"), "--radius", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("count ")
        count = int(lines[-1].split()[1])
        assert count == len(lines) - 1
        _, fan = SER.load_path(fx("delta_fig.json"))
        m = MIN.minimal_fan(fan)
        expected = sum(
            1
            for x in range(-3, 4)
            for y in range(-3, 4)
            if _gen.minimal_set_member((x, y), m)
        )
        assert count == expected

    @pytest.mark.parametrize("name", ORACLE_GOLDENS)
    def test_oracle_golden(self, capsys, monkeypatch, name):
        # fixtures/oracle/<name> holds exit code, stdout and stderr of
        # s-enumerate on fixtures/<name> at radius 2 and 5, recorded with
        # the point-by-point scan before the line sweep replaced it.  The
        # path is given relative to fixtures/, as it was when recorded.
        with open(FIXTURES / "oracle" / name) as fh:
            want = json.load(fh)
        monkeypatch.chdir(FIXTURES)
        for radius in ("2", "5"):
            code, out, err = run(capsys, "oracle", "s-enumerate", name, "--radius", radius)
            assert {"code": code, "stdout": out, "stderr": err} == want[radius]

    def test_cover_sample(self, capsys, fx):
        code, out, _ = run(capsys, "oracle", "cover-sample", fx("trivial.json"),
                           "--count", "50", "--seed", "1")
        assert code == 0 and out.strip() == "covered 50/50"

    def test_cover_sample_incomplete(self, capsys, fx):
        code, out, _ = run(capsys, "oracle", "cover-sample", fx("quadrant.json"),
                           "--count", "50", "--seed", "1")
        assert code == 1

    def test_translations_bruteforce(self, capsys, fx):
        code, out, _ = run(capsys, "oracle", "translations-bruteforce",
                           fx("tate_two_arc.json"), "--bound", "10")
        assert code == 0
        ms = {int(line) for line in out.strip().splitlines()}
        assert ms == {-1, 0}
