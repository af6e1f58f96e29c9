"""Acceptance gate: one timed end-to-end check per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the
acceptance status is visible in any pytest run.
"""

import itertools
import random
import time

import tropfan.cli as cli
import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.oracle as oracle
import tropfan.semiabelian as S
import tropfan.serialize as SER
from tropfan._linalg import lp_feasible
import conftest
from conftest import FIXTURES

import _gen


def load(name):
    return SER.load_path(str(FIXTURES / name))[1]


def _record(line):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def _timed(label, budget, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        _record(f"FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    _record(f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"{label} exceeded time budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_1_figure_reproduction(capsys):
    def body():
        fan = load("delta_fig.json")
        m = MIN.minimal_fan(fan)
        lattices = {p.lattice for p in m.pieces}
        assert lattices == {
            L.full_lattice(2),
            L.canonicalize([(2, 0), (0, 1)], 2),
        }
        red = [p for p in m.pieces if p.lattice != L.full_lattice(2)]
        assert len(red) == 1
        assert red[0].cone.rays == ((-2, -1), (0, 1))

        code = cli.main(
            ["equiv", str(FIXTURES / "delta_fig.json"), str(FIXTURES / "trivial.json")]
        )
        out = capsys.readouterr().out
        assert code == 1 and out.startswith("inequivalent witness ")
        w = tuple(int(x) for x in out.split()[2:])
        trivial = MIN.minimal_fan(load("trivial.json"))
        assert MIN.minimal_set_member(w, m) != MIN.minimal_set_member(w, trivial)

        svg_out = str(FIXTURES.parent / "test_render_tmp.svg")
        code = cli.main(["render", str(FIXTURES / "delta_fig.json"), "--out", svg_out])
        capsys.readouterr()
        assert code == 0
        with open(svg_out) as fh:
            rendered = fh.read()
        import os

        os.unlink(svg_out)
        with open(FIXTURES / "delta_fig.svg") as fh:
            assert rendered == fh.read()

    _timed("criterion 1 (intro-figure reproduction)", 1.0, body)


def test_criterion_2_representable_classes_trivial():
    def body():
        rng = random.Random(20)
        hirzebruch2 = F.fan_from_maximal(
            [
                F.stacky_cone([a, b], [(1, 0), (0, 1)], 2)
                for a, b in [
                    ((1, 0), (0, 1)),
                    ((0, 1), (-1, 3)),
                    ((-1, 3), (0, -1)),
                    ((0, -1), (1, 0)),
                ]
            ],
            2,
        )
        fans = [
            load("p2.json"),
            load("hirzebruch.json"),
            hirzebruch2,
            _gen.random_complete_fan2(rng, full_lattice_only=True),
        ]
        trivial = load("trivial.json")
        for f in fans:
            assert F.validate(f) == [] and F.is_complete(f)
        for a, b in itertools.combinations(fans, 2):
            assert MIN.birationally_equivalent(a, b)
        # Subdivision witness against the trivial coloring: the common
        # refinement refines both sides.
        for f in fans:
            cr = F.common_refinement(f, trivial)
            assert F.is_subdivision(cr, f)
            assert F.is_subdivision(cr, trivial)

    _timed("criterion 2 (representable classes trivial)", 1.0, body)


def test_criterion_3_minimality_laws():
    def body():
        rng = random.Random(30)
        for _ in range(200):
            fan = _gen.random_fan(rng)
            m = MIN.minimal_fan(fan)
            again = MIN.minimal_fan(m)
            assert again.pieces == m.pieces  # idempotent, structurally

            sub = fan
            for _ in range(3):
                sub = _gen.random_stellar(rng, sub)
            assert MIN.minimal_fan(sub) == m  # subdivision-invariant

            root = _gen.global_root(fan, 5)
            assert MIN.minimal_fan(root) != m  # proper roots change S

    _timed("criterion 3 (minimality laws, 200 fans)", 60.0, body)


def test_criterion_4_oracle_equivalence():
    def body():
        rng = random.Random(40)
        for _ in range(100):
            rank3 = rng.random() < 0.15
            if rank3:
                f1 = _gen.random_fan3(rng)
            else:
                f1 = _gen.random_complete_fan2(rng)
            style = rng.random()
            if style < 0.4:
                f2 = _gen.random_stellar(rng, f1)
            elif style < 0.6:
                f2 = _gen.global_root(f1, rng.choice([2, 3, 5]))
            else:
                f2 = _gen.random_fan3(rng) if rank3 else _gen.random_complete_fan2(rng)
            symbolic = MIN.birationally_equivalent(f1, f2)
            brute = set(oracle.s_enumerate(f1, 8)) == set(oracle.s_enumerate(f2, 8))
            assert symbolic == brute

    _timed("criterion 4 (oracle equivalence, 100 pairs)", 120.0, body)


def test_criterion_5_morphism_dictionary():
    def body():
        rng = random.Random(50)
        for _ in range(100):
            coarse = _gen.random_fan(rng)
            style = rng.random()
            if style < 0.35:
                fine = _gen.random_stellar(rng, coarse)
            elif style < 0.6:
                fine = _gen.global_root(coarse, rng.choice([2, 5]))
            elif style < 0.8:
                sub = _gen.random_stellar(rng, coarse)
                maxs = F.maximal_cones(sub)
                kept = [sc for i, sc in enumerate(maxs) if i != rng.randrange(len(maxs))]
                fine = F.fan_from_maximal(kept, coarse.ambient_rank)
            else:
                fine = coarse
            m = F.FanMorphismData(fine, coarse)
            assert F.is_subdivision(fine, coarse) == (
                F.is_representable(m) and F.is_proper(m)
            )
            # Completeness is a birational invariant.
            assert F.is_complete(_gen.random_stellar(rng, coarse)) == F.is_complete(coarse)
            assert F.is_complete(_gen.global_root(coarse, 3)) == F.is_complete(coarse)

    _timed("criterion 5 (morphism dictionary, 100 morphisms)", 30.0, body)


def _random_definite_base(rng, g, b):
    """A polarization PSD on the rank-b orthant with trivial common kernel."""
    rays = [tuple(1 if j == k else 0 for j in range(b)) for k in range(b)]
    base_cone = F.stacky_cone(rays, rays, b)
    while True:
        grams = []
        for _ in range(b):
            rows = rng.randint(1, g)
            r = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(rows)]
            grams.append(
                [
                    [sum(r[k][i] * r[k][j] for k in range(rows)) for j in range(g)]
                    for i in range(g)
                ]
            )
        q = tuple(
            tuple(tuple(grams[k][i][j] for k in range(b)) for j in range(g))
            for i in range(g)
        )
        base = S.PolarizedBase(base_cone, g, q, 0)
        if S.validate_form(base) == []:
            return base


def test_criterion_6_pairing_lemmas():
    def body():
        rng = random.Random(60)
        # Vanishing propagation: m'Gm = 0 forces Gm = 0 for PSD grams.
        for _ in range(100):
            g = rng.randint(1, 3)
            b = rng.randint(1, 3)
            base = _random_definite_base(rng, g, b)
            n = tuple(rng.randint(0, 3) for _ in range(b))
            G = S.gram(base, n)
            for m in itertools.product(range(-2, 3), repeat=g):
                quad = sum(m[i] * G[i][j] * m[j] for i in range(g) for j in range(g))
                assert quad >= 0
                if quad == 0:
                    for j in range(g):
                        assert sum(m[i] * G[i][j] for i in range(g)) == 0

        # admissible_hom vs ray-wise admissible_point and vs the LP
        # [G | -G] λ = target, λ ≥ 0, on an exhaustive small family.
        base_cone = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        bases = [
            S.PolarizedBase(base_cone, 1, (((1, 1),),), 0),
            S.PolarizedBase(base_cone, 1, (((1, 0),),), 0),
            S.PolarizedBase(base_cone, 2, (((1, 0), (0, 0)), ((0, 0), (0, 1))), 0),
            S.PolarizedBase(base_cone, 2, (((1, 1), (1, 0)), ((1, 0), (1, 1))), 0),
        ]
        ray_pool = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]
        cones = [C.from_rays([r], 2) for r in ray_pool] + [
            C.from_rays([a, b], 2)
            for a, b in itertools.combinations(ray_pool, 2)
            if a[0] * b[1] - a[1] * b[0] != 0
        ]
        identity = [[1, 0], [0, 1]]
        for base in bases:
            assert S.validate_form(base) == []
            g = base.m_rank
            for tau in cones:
                for phi in itertools.product(
                    itertools.product(range(-2, 3), repeat=2), repeat=g
                ):
                    via_hom = S.admissible_hom(tau, identity, list(phi), base)
                    via_lp = True
                    for ray in tau.rays:
                        G = S.gram(base, ray)
                        a_eq = [
                            [G[i][j] for i in range(g)] + [-G[i][j] for i in range(g)]
                            for j in range(g)
                        ]
                        target = [sum(p[k] * ray[k] for k in range(2)) for p in phi]
                        via_lp = via_lp and lp_feasible(a_eq, target, 2 * g)
                    via_points = all(
                        S.admissible_point(
                            ray,
                            tuple(sum(p[k] * ray[k] for k in range(2)) for p in phi),
                            base,
                        )
                        for ray in tau.rays
                    )
                    assert via_hom == via_points == via_lp

    _timed("criterion 6 (pairing lemmas)", 60.0, body)


def test_criterion_7_tate_suite():
    def body():
        one = load("tate_one_arc.json")
        violations = S.validate_av_fan(one)
        assert any(v.startswith("(5)") for v in violations)
        assert any("(1, 2)" in v for v in violations)  # T_1(1,1) = (1,2)

        two = load("tate_two_arc.json")
        assert S.validate_av_fan(two) == []
        assert S.av_complete(two)
        qc = S.quotient_complex(two)
        assert qc.cells_by_dim() == {0: 1, 1: 2, 2: 2}
        pairs = [(i, j) for i, j, _ in qc.face_maps]
        assert len(pairs) == len(set(pairs))  # at most one map per pair

        tau0 = two.representatives[3]
        tau1 = two.representatives[4]
        assert tau0.cone.rays == ((1, 0), (2, 1))
        ms = S.candidate_translations(tau0, tau1, two.base)
        assert ms == ((-1,), (0,))
        assert list(ms) == oracle.translations_bruteforce(tau0, tau1, two.base, 10)

    _timed("criterion 7 (Tate-curve suite)", 5.0, body)


def _cycle_space_gram(num_vertices, edges):
    """Independent Jacobian oracle: enumerate small cycle vectors directly."""
    E = len(edges)
    members = []
    for z in itertools.product((-1, 0, 1), repeat=E):
        boundary = [0] * num_vertices
        for e, (u, v, _) in enumerate(edges):
            boundary[u] -= z[e]
            boundary[v] += z[e]
        if all(x == 0 for x in boundary):
            members.append(z)
    basis = L.canonicalize(members, E).basis
    b = len(edges[0][2])
    gram = []
    for za in basis:
        row = []
        for zb in basis:
            total = [0] * b
            for e in range(E):
                if za[e] and zb[e]:
                    total = [t + za[e] * zb[e] * x for t, x in zip(total, edges[e][2])]
            row.append(tuple(total))
        gram.append(tuple(row))
    return len(basis), tuple(gram)


def test_criterion_8_jacobian_ingestion():
    def body():
        num_vertices, edges, base_cone, torus_rank = load("theta_graph.json")
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
        g_oracle, q_oracle = _cycle_space_gram(num_vertices, edges)
        assert base.m_rank == g_oracle == 2
        found = False
        for entries in itertools.product(range(-2, 3), repeat=4):
            u = ((entries[0], entries[1]), (entries[2], entries[3]))
            det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
            if det in (1, -1) and _gen.congruent_by(base.q_matrix, q_oracle, u):
                found = True
                break
        assert found

        # The documented normal form [[d1+d2, -d2], [-d2, d2+d3]].
        expected = (
            ((1, 1, 0), (0, -1, 0)),
            ((0, -1, 0), (0, 1, 1)),
        )
        found = any(
            _gen.congruent_by(base.q_matrix, expected, ((a, b), (c, d)))
            for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
            if a * d - b * c in (1, -1)
        )
        assert found
        assert S.validate_form(base) == []

        nv, es, bc, tr = load("path_graph.json")
        tree_base = S.jacobian_form(nv, es, bc, tr)
        assert tree_base.m_rank == 0
        assert _cycle_space_gram(nv, es)[0] == 0

        nv, es, bc, tr = load("loop_graph.json")
        assert S.validate_form(S.jacobian_form(nv, es, bc, tr)) == []

        nv, es, bc, tr = load("zero_loop_graph.json")
        assert S.validate_form(S.jacobian_form(nv, es, bc, tr))

    _timed("criterion 8 (Jacobian ingestion)", 5.0, body)


def test_criterion_9_reference_subdivision():
    def body():
        standard = S.reference_subdivision([(1, 0), (0, 1)], 2)
        assert F.validate(standard) == []
        assert F.is_complete(standard)
        assert len(F.maximal_cones(standard)) == 4
        quads = sorted(sc.cone.rays for sc in F.maximal_cones(standard))
        assert quads == [
            ((-1, 0), (0, -1)),
            ((-1, 0), (0, 1)),
            ((0, -1), (1, 0)),
            ((0, 1), (1, 0)),
        ]

        refined = S.reference_subdivision([(1, 0), (0, 1), (1, 1), (1, -1)], 2)
        assert F.validate(refined) == []
        assert F.is_complete(refined)
        assert len(F.maximal_cones(refined)) == 8
        assert F.is_subdivision(refined, standard)

    _timed("criterion 9 (reference subdivision)", 5.0, body)
