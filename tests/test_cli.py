import itertools
import json
import random

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

    def test_quotient_complex_is_not_read_back(self, capsys, fx, tmp_path):
        _, fan = SER.load_path(fx("tate_two_arc.json"))
        text = SER.dumps(S.quotient_complex(fan))
        assert json.loads(text)["kind"] == "quotient_complex"
        with pytest.raises(SER.ParseError, match="unknown document kind 'quotient_complex'"):
            SER.loads(text)
        path = tmp_path / "quotient.json"
        assert run(capsys, "quotient", fx("tate_two_arc.json"), "--out", str(path))[0] == 0
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert "unknown document kind 'quotient_complex'" in err

    @pytest.mark.parametrize("obj", [object(), (1, 2, 3), [0, 1, 2, 3], None])
    def test_unsupported_object_is_type_error(self, obj):
        with pytest.raises(TypeError, match="cannot serialize"):
            SER.to_document(obj)

    def test_kinds_are_the_readable_codecs(self):
        assert SER.KINDS == ("stacky_fan", "coloring", "polarized_base", "av_fan", "graph")
        assert [kind for kind, *_ in SER.CODECS] == [*SER.KINDS[:4], "quotient_complex", "graph"]

    def test_non_integer_entry(self):
        doc = {
            "schema_version": "1",
            "kind": "stacky_fan",
            "payload": {"ambient_rank": "2", "cones": [{"rays": [["x", "0"]], "lattice": [["1", "0"]]}]},
        }
        with pytest.raises(SER.ParseError, match="integer"):
            SER.loads(json.dumps(doc))


def _fan_doc(n, cones):
    return json.dumps({
        "schema_version": "1",
        "kind": "stacky_fan",
        "payload": {"ambient_rank": str(n), "cones": [
            {"rays": [[str(x) for x in r] for r in rays],
             "lattice": [[str(x) for x in v] for v in lat]}
            for rays, lat in cones
        ]},
    })


def _av_doc(cones):
    """The Tate two-arc document (b = g = 1) with these representatives."""
    doc = json.loads((FIXTURES / "tate_two_arc.json").read_text())
    doc["payload"]["representatives"] = json.loads(_fan_doc(2, cones))["payload"]["cones"]
    return json.dumps(doc)


# A ray with zero base part and nonzero N part: the Tate two-arc fan with
# this representative added is an invalid translation fan.
INVALID_RAY = {"lattice": [["0", "1"]], "rays": [["0", "1"]]}

# One color, Z², on the quadrant and on its face cone((1, 0)).
ONE_COLOR_FACE = {
    "schema_version": "1",
    "kind": "coloring",
    "payload": {"ambient_rank": "2", "colors": [{
        "lattice": [["1", "0"], ["0", "1"]],
        "cones": [[["1", "0"], ["0", "1"]], [["1", "0"]]],
    }]},
}


def _invalid_ray_doc():
    doc = json.loads((FIXTURES / "tate_two_arc.json").read_text())
    doc["payload"]["representatives"].append(INVALID_RAY)
    return doc


class TestStackyFanDecoder:
    # Every decoded cone is the one `from_rays` gives for its listed rays,
    # and of several faults the first cone's, in document order, is
    # raised.  The cones of a stacky fan and the representatives of an
    # av_fan are decoded alike.

    @pytest.mark.parametrize("seed", range(4))
    def test_cones_equal_from_rays(self, seed):
        fan = _gen.random_fan(random.Random(seed))
        n = fan.ambient_rank
        # Faces listed first, each with a doubled ray and a zero vector.
        listed = [
            ([tuple(2 * x for x in r) for r in sc.cone.rays[:1]] + list(sc.cone.rays)
             + [(0,) * n], sc.lattice.basis)
            for sc in fan.cones
        ]
        decoded = SER.loads(_fan_doc(n, listed))[1]
        for sc, (rays, lat) in zip(decoded.cones, listed):
            ref = C.from_rays(rays, n)
            assert (sc.cone.rays, sc.cone.span_basis, sc.cone.facet_normals) == (
                ref.rays, ref.span_basis, ref.facet_normals)
            assert sc.lattice == L.canonicalize(lat, n)

    def test_first_fault_in_document_order(self):
        square = [(1, 0), (0, 1)]
        line = [(1, 0), (-1, 0)]
        short = [(1, 0, 0)]
        cases = [
            # A line listed before a cone whose integer fails to decode.
            ([(line, square), ([("x", "0")], square)], "contains a line"),
            # A ray of the wrong length listed before a longer cone that
            # contains a line, which is built first.
            ([(short, square), (line + [(0, 1)], square)], "does not have length"),
            ([(square, square), (line + [(0, 1)], square)], "contains a line"),
            ([(square, [(1, 0, 0)]), ([(1, 1)], square)], "does not have length"),
        ]
        for cones, message in cases:
            for doc in (_fan_doc(2, cones), _av_doc(cones)):
                with pytest.raises(SER.ParseError, match=message):
                    SER.loads(doc)

    @pytest.mark.parametrize(
        "name", ["tate_one_arc", "tate_three_arc", "tate_two_arc", "tate_two_arc_idx2"]
    )
    def test_av_fan_reads_listed_faces(self, fx, name):
        # The representatives of an av_fan, faces included, are decoded the
        # same way.
        with open(fx(f"{name}.json")) as fh:
            text = fh.read()
        listed = json.loads(text)["payload"]["representatives"]
        decoded = SER.loads(text)[1]
        n = decoded.ambient_rank
        want = [C.from_rays([[int(x) for x in r] for r in obj["rays"]], n) for obj in listed]
        got = [sc.cone for sc in decoded.representatives]
        assert sorted((c.rays, c.span_basis, c.facet_normals) for c in want) == sorted(
            (c.rays, c.span_basis, c.facet_normals) for c in got
        )


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
        "name, kind, edit",
        [
            # A cone containing the line R·(1, 0).
            ("quadrant.json", "stacky_fan",
             lambda p: p["cones"].append({"lattice": [["1", "0"]], "rays": [["1", "0"], ["-1", "0"]]})),
            # A ray of length 3 in ambient rank 2.
            ("quadrant.json", "stacky_fan", lambda p: p["cones"][1]["rays"][0].append("0")),
            ("quadrant.json", "stacky_fan", lambda p: p.update(ambient_rank="-1")),
            # A q_matrix row with no entries where g = 1 asks for one.
            ("tate_two_arc.json", "av_fan", lambda p: p["base"]["q_matrix"][0].clear()),
            # Negative ranks and counts, on documents that are otherwise
            # consistent with them.
            ("quadrant.json", "stacky_fan", lambda p: p.update(ambient_rank="-1", cones=[])),
            ("minimal/quadrant.json", "coloring",
             lambda p: p.update(ambient_rank="-2", colors=[])),
            ("tate_two_arc.json", "av_fan", lambda p: p["base"].update(torus_rank="-1")),
            ("theta_graph.json", "graph", lambda p: p.update(torus_rank="-1")),
            ("theta_graph.json", "graph", lambda p: p.update(num_vertices="-1", edges=[])),
        ],
        ids=[
            "non_pointed", "ray_length", "negative_rank", "q_row_empty",
            "negative_rank_no_cones", "coloring_negative_rank", "av_negative_torus_rank",
            "graph_negative_torus_rank", "graph_negative_vertices",
        ],
    )
    def test_decode_error_is_parse_error(self, capsys, fx, tmp_path, name, kind, edit):
        with open(fx(name)) as fh:
            doc = json.load(fh)
        edit(doc["payload"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for cmd in ("validate", "complete"):
            code, _, err = run(capsys, cmd, str(path))
            assert code == 2 and f"malformed {kind} payload" in err

    def test_negative_torus_rank_of_a_base_is_parse_error(self, capsys, fx, tmp_path):
        with open(fx("tate_two_arc.json")) as fh:
            base = json.load(fh)["payload"]["base"]
        doc = {"schema_version": "1", "kind": "polarized_base", "payload": base}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path))[:2] == (0, "ok\n")
        base["torus_rank"] = "-1"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "malformed polarized_base payload" in err
        assert "nonnegative" in err

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

    def test_ray_inside_quadrant_is_inequivalent(self, capsys, tmp_path):
        fans = dict(zip(("quadrant", "ray"), _gen.quadrant_and_diagonal_ray()))
        for name, fan in fans.items():
            _gen.dump_path(fan, tmp_path / f"{name}.json")
        for a, b in (("quadrant", "ray"), ("ray", "quadrant")):
            code, out, err = run(
                capsys, "equiv", str(tmp_path / f"{a}.json"), str(tmp_path / f"{b}.json")
            )
            assert (code, err) == (1, "")
            assert out.startswith("inequivalent witness ")
            w = tuple(int(x) for x in out.split()[2:])
            in_a = _gen.minimal_set_member(w, MIN.minimal_fan(fans[a]))
            in_b = _gen.minimal_set_member(w, MIN.minimal_fan(fans[b]))
            assert in_a != in_b

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

    def test_equiv_golden(self, capsys, fx):
        # fixtures/equiv/golden.json holds exit code, stdout and stderr of
        # equiv on every ordered pair of the valid stacky fans and their
        # minimal colorings, recorded before the hyperplane split kept
        # uncut cells whole.  The split order decides the witness points.
        with open(fx("equiv/golden.json")) as fh:
            golden = json.load(fh)
        assert len(golden) == 144
        for pair, want in golden.items():
            a, b = pair.split()
            code, out, err = run(capsys, "equiv", fx(a), fx(b))
            assert {"code": code, "stdout": out, "stderr": err} == want, pair

    def test_invalid_stacky_fan_rejected(self, capsys, fx, tmp_path):
        """An invalid fan is reported, not compared: delta_fig_bad.json, and
        delta_fig.json with a zero row in a 2-cone's lattice, whose lattice
        then has rank 1 (the witness search used to end in TypeError)."""
        with open(fx("delta_fig.json")) as fh:
            doc = json.load(fh)
        two_cone = next(c for c in doc["payload"]["cones"] if len(c["rays"]) == 2)
        two_cone["lattice"][0] = ["0", "0"]
        path = tmp_path / "rank_deficient.json"
        path.write_text(json.dumps(doc))
        for bad in (fx("delta_fig_bad.json"), str(path)):
            for argv in ([bad, bad], [bad, fx("delta_fig.json")], [fx("p2.json"), bad]):
                code, out, err = run(capsys, "equiv", *argv)
                assert (code, out) == (1, "")
                assert err.strip() == "input fan is invalid; run validate"


    @pytest.mark.parametrize("lattice", [[["1", "0"]], [["1", "0"], ["0", "0"]]])
    def test_invalid_coloring_rejected(self, capsys, fx, tmp_path, lattice):
        """A coloring whose lattice has rank 1 on a 2-dimensional region is
        reported by validate and refused by minimal and equiv (the witness
        search used to end in TypeError)."""
        with open(fx("minimal/quadrant.json")) as fh:
            doc = json.load(fh)
        doc["payload"]["colors"][0]["lattice"] = lattice
        bad = str(tmp_path / "rank_deficient.json")
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert out.startswith("lattice rank 1 != cone dimension 2 ")
        for argv in (["minimal", bad], ["equiv", bad, fx("quadrant.json")],
                     ["equiv", fx("quadrant.json"), bad], ["equiv", bad, bad]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.strip() == "input fan is invalid; run validate"

    def test_coloring_with_a_face_in_its_own_color(self, capsys, fx, tmp_path):
        """A region that is a face of another region of the same color is
        no overlap: validate accepts the document and the document of its
        `from_coloring` (written as two colors), minimal emits a valid
        coloring, and the class is the quadrant's."""
        path = tmp_path / "one_color.json"
        path.write_text(json.dumps(ONE_COLOR_FACE))
        regions = (C.from_rays([(1, 0), (0, 1)], 2), C.from_rays([(1, 0)], 2))
        coloring = MIN.SublatticeColoring(2, ((L.full_lattice(2), regions),))
        regrouped = tmp_path / "regrouped.json"
        regrouped.write_text(SER.dumps(MIN.from_coloring(coloring)))
        assert len(json.loads(regrouped.read_text())["payload"]["colors"]) == 2
        for doc in (path, regrouped):
            assert run(capsys, "validate", str(doc)) == (0, "ok\n", "")
        out_path = tmp_path / "minimal.json"
        assert run(capsys, "minimal", str(path), "--out", str(out_path)) == (0, "", "")
        assert run(capsys, "validate", str(out_path)) == (0, "ok\n", "")
        for argv in ([str(path), fx("minimal/quadrant.json")],
                     [fx("minimal/quadrant.json"), str(path)]):
            assert run(capsys, "equiv", *argv) == (0, "equivalent\n", "")


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

    def test_ray_inside_quadrant_is_not_proper(self, capsys, tmp_path):
        quadrant, ray = _gen.quadrant_and_diagonal_ray()
        fine, coarse = str(tmp_path / "ray.json"), str(tmp_path / "quadrant.json")
        _gen.dump_path(ray, fine)
        _gen.dump_path(quadrant, coarse)
        assert run(capsys, "proper", fine, coarse) == (1, "false\n", "")

    def test_complete(self, capsys, fx):
        code, out, _ = run(capsys, "complete", fx("trivial.json"))
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "complete", fx("quadrant.json"))
        assert code == 1 and out.strip() == "false"
        code, out, _ = run(capsys, "complete", fx("tate_two_arc.json"))
        assert code == 0

    def test_complete_counts_a_cone_listed_twice_once(self, capsys, tmp_path):
        # The positive quadrant listed twice (lattices Z² and 2Z × Z) is
        # one top, not two tops paired at both ridges; the four quadrants
        # with one of them listed twice cover the plane; a rank-1 ray
        # listed twice covers half the line.  `validate` reports each
        # duplicate.
        square = [(1, 0), (0, 1)]
        wide = [(2, 0), (0, 1)]
        quadrants = [[(sx, 0), (0, sy)] for sx in (1, -1) for sy in (1, -1)]
        cases = [
            (2, [(square, square), (square, wide)], (1, "false\n", "")),
            (2, [(q, square) for q in quadrants] + [(square, wide)], (0, "true\n", "")),
            (1, [([(1,)], [(1,)]), ([(1,)], [(2,)])], (1, "false\n", "")),
        ]
        for i, (n, cones, want) in enumerate(cases):
            path = str(tmp_path / f"twice{i}.json")
            with open(path, "w") as fh:
                fh.write(_fan_doc(n, cones))
            assert run(capsys, "complete", path) == want
            code, out, _ = run(capsys, "validate", path)
            assert code == 1 and "duplicate cone" in out

    def test_complete_reads_the_support_of_an_invalid_fan(self, capsys, tmp_path):
        # Three cones of Z² whose rays each bound two of them cover only
        # the quadrant; the eight octants with the cone on (1, 1, 0) and
        # (1, −1, 0), which lies in no single octant, cover R³.  Both
        # fans are invalid.
        square = [(1, 0), (0, 1)]
        three = [(square, square), ([(1, 1), (0, 1)], square), ([(1, 0), (1, 1)], square)]
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        octants = [
            ([[s * x for x in e] for s, e in zip(signs, axes)], axes)
            for signs in itertools.product((1, -1), repeat=3)
        ]
        wedge = [(1, 1, 0), (1, -1, 0)]
        cases = [(2, three, (1, "false\n", "")), (3, octants + [(wedge, wedge)], (0, "true\n", ""))]
        for i, (n, cones, want) in enumerate(cases):
            path = str(tmp_path / f"invalid{i}.json")
            with open(path, "w") as fh:
                fh.write(_fan_doc(n, cones))
            assert run(capsys, "complete", path) == want
            assert run(capsys, "validate", path)[0] == 1

    def test_predicate_golden(self, capsys, monkeypatch):
        # fixtures/cli/golden.json holds exit code, stdout and stderr of
        # subdivision, proper and representable on every ordered pair of
        # the 7 stacky-fan fixtures, validate and complete on those fans
        # and the 6 colorings of fixtures/minimal/, and jacobian on the 4
        # graphs, recorded before the three morphism commands became one.
        # Paths are relative to fixtures/, as they were when recorded.
        with open(FIXTURES / "cli" / "golden.json") as fh:
            golden = json.load(fh)
        assert len(golden) == 177
        monkeypatch.chdir(FIXTURES)
        for line, want in golden.items():
            code, out, err = run(capsys, *line.split())
            assert {"code": code, "stdout": out, "stderr": err} == want, line

    def test_av_fan_with_invalid_ray(self, capsys, fx, tmp_path):
        """A ray with zero base part and nonzero N part is a violation, not
        an error inside the translation code."""
        with open(fx("tate_two_arc.json")) as fh:
            doc = json.load(fh)
        doc["payload"]["representatives"].append({"lattice": [["0", "1"]], "rays": [["0", "1"]]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1 and "zero base part but nonzero N part" in out
        for argv in (["complete", str(path)], ["equiv", str(path), fx("tate_two_arc.json")]):
            code, _, err = run(capsys, *argv)
            assert code == 1 and err.strip() == "input fan is invalid; run validate"


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

    def test_jacobian_short_length_is_parse_error(self, capsys, fx, tmp_path):
        with open(fx("theta_graph.json")) as fh:
            doc = json.load(fh)
        doc["payload"]["edges"][0][2] = doc["payload"]["edges"][0][2][:2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "jacobian", str(path))
        assert code == 2 and out == "" and "2 entries, not 3" in err

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

    def test_render_rejects_negative_radius(self, capsys, fx):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "render", fx("trivial.json"), "--radius", "-1")
        assert exc.value.code == 2
        assert "argument --radius: -1 is negative" in capsys.readouterr().err

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

    def test_cover_sample_refuses_an_av_fan_with_invalid_ray(self, capsys, tmp_path):
        # The ray's slope is undefined; the sample used to end in a
        # ValueError from the translation code.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_invalid_ray_doc()))
        code, out, err = run(capsys, "oracle", "cover-sample", str(path))
        assert (code, out) == (1, "")
        assert err.strip() == "input fan is invalid; run validate"

    def test_cover_sample_rejects_negative_count(self, capsys, fx):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "oracle", "cover-sample", fx("trivial.json"), "--count", "-3")
        assert exc.value.code == 2
        assert "argument --count: -3 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, flag", [
        ("s-enumerate", "trivial.json", "--radius"),
        ("translations-bruteforce", "tate_two_arc.json", "--bound"),
    ])
    def test_rejects_negative_box(self, capsys, fx, command, name, flag):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "oracle", command, fx(name), flag, "-1")
        assert exc.value.code == 2
        assert f"argument {flag}: -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("cells, bad", [(("0", "99"), "99"), (("-1", "0"), "-1")])
    def test_translations_bruteforce_index_out_of_range(self, capsys, fx, cells, bad):
        # tate_two_arc.json has five representatives.
        code, out, err = run(capsys, "oracle", "translations-bruteforce",
                             fx("tate_two_arc.json"), "--cells", *cells)
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"cell index {bad} is outside 0..4"]

    def test_translations_bruteforce(self, capsys, fx):
        code, out, _ = run(capsys, "oracle", "translations-bruteforce",
                           fx("tate_two_arc.json"), "--bound", "10")
        assert code == 0
        ms = {int(line) for line in out.strip().splitlines()}
        assert ms == {-1, 0}


SINGLE_FILE_COMMANDS = [
    ["validate"], ["minimal"], ["complete"], ["quotient"], ["jacobian"], ["render"],
    ["oracle", "s-enumerate"], ["oracle", "cover-sample"],
    ["oracle", "translations-bruteforce"],
]
TWO_FILE_COMMANDS = ["equiv", "subdivision", "proper", "representable", "refine"]


@pytest.fixture(scope="module")
def sweep_documents(tmp_path_factory):
    """(every JSON file under fixtures/ and the two extra documents, the
    top-level fixture documents and the two extra documents)."""
    tmp = tmp_path_factory.mktemp("sweep")
    extra = []
    for name, doc in (("invalid_ray.json", _invalid_ray_doc()),
                      ("one_color.json", ONE_COLOR_FACE)):
        (tmp / name).write_text(json.dumps(doc))
        extra.append(str(tmp / name))
    every = sorted(str(p) for p in FIXTURES.rglob("*.json")) + extra
    top = sorted(str(p) for p in FIXTURES.glob("*.json")) + extra
    return every, top


class TestNoTraceback:
    """Every subcommand, on every fixture document and the two extra
    documents above (the two-file commands on every ordered pair of
    top-level ones), answers with an exit code from 0 to 4: no exception
    escapes `cli.main`."""

    def _sweep(self, capsys, argvs):
        escaped = []
        for argv in argvs:
            try:
                code = cli.main(argv)
            except BaseException as exc:  # SystemExit included
                escaped.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
                continue
            finally:
                capsys.readouterr()
            if code not in range(5):
                escaped.append(f"{' '.join(argv)}: exit code {code!r}")
        assert escaped == []

    @pytest.mark.parametrize("command", SINGLE_FILE_COMMANDS, ids=" ".join)
    def test_single_file(self, capsys, sweep_documents, command):
        every, _ = sweep_documents
        assert len(every) > 40
        self._sweep(capsys, [command + [path] for path in every])

    @pytest.mark.parametrize("command", TWO_FILE_COMMANDS)
    def test_two_files(self, capsys, sweep_documents, command):
        _, top = sweep_documents
        assert len(top) == 18
        self._sweep(capsys, [[command, a, b] for a in top for b in top])
