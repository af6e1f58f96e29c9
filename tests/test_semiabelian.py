import ast
import importlib.util
import json
import math
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.oracle as oracle
import tropfan.semiabelian as S
import tropfan.serialize as SER
from conftest import FIXTURES
from tropfan._linalg import det, is_zero, rational_rank, rational_solve

import _gen
from _ref import ref_facets, ref_is_face_of, ref_translation_box

ROOT = FIXTURES.parent


def load(name):
    return SER.load_path(str(FIXTURES / name))[1]


def tate_base():
    return load("tate_two_arc.json").base


def translate_vector(base, v, m):
    """T_m v, by the shear block A_m."""
    return S._shear(S.shear_block(base, m), base.base_rank, v)


class TestForms:
    def test_gram_and_q_hom(self):
        base = tate_base()
        assert S.gram(base, (3,)) == [[3]]
        assert S.q_hom(base, (2,), (3,)) == (6,)

    def test_translate_vector(self):
        base = tate_base()
        assert translate_vector(base, (1, 1), (1,)) == (1, 2)
        assert translate_vector(base, (2, 0), (-1,)) == (2, -2)

    def test_validate_form_tate(self):
        assert S.validate_form(tate_base()) == []

    def test_validate_form_asymmetric(self):
        base = tate_base()
        bad = S.PolarizedBase(
            base.base_cone,
            2,
            (((1,), (2,)), ((3,), (1,))),
            0,
        )
        assert any("symmetric" in v for v in S.validate_form(bad))

    def test_validate_form_degenerate(self):
        base = tate_base()
        bad = S.PolarizedBase(base.base_cone, 1, (((0,),),), 0)
        assert any("degenerate" in v for v in S.validate_form(bad))

    def test_validate_form_not_psd(self):
        base = tate_base()
        bad = S.PolarizedBase(base.base_cone, 1, (((-1,),),), 0)
        assert any("positive semidefinite" in v for v in S.validate_form(bad))


class TestAdmissibility:
    def test_admissible_point_tate(self):
        base = tate_base()
        assert S.admissible_point((1,), (5,), base)
        assert S.admissible_point((0,), (0,), base)
        assert not S.admissible_point((0,), (1,), base)
        assert not S.admissible_point((-1,), (0,), base)

    def test_admissible_point_rank(self):
        # g = 2 over a quadrant base with a rank-1 gram at one ray.
        base_cone = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
        q = (
            ((1, 0), (0, 0)),
            ((0, 0), (0, 1)),
        )
        base = S.PolarizedBase(base_cone, 2, q, 0)
        assert S.validate_form(base) == []
        # At n = (1, 0) the gram matrix is diag(1, 0).
        assert S.admissible_point((1, 0), (3, 0), base)
        assert not S.admissible_point((1, 0), (0, 1), base)
        assert S.admissible_point((1, 1), (2, 5), base)

    def test_admissible_hom_matches_pointwise(self):
        base = tate_base()
        tau = C.from_rays([(1,)], 1)
        structure = [[1]]
        # phi(e_1) = (c,): admissible iff the single covector value lies in
        # the span of gram column, always true for c anything since G=(1).
        assert S.admissible_hom(tau, structure, [(5,)], base)
        assert S.admissible_hom(tau, structure, [(0,)], base)


class TestTranslations:
    def test_candidate_translations_tate(self):
        fan = load("tate_two_arc.json")
        tau0 = fan.representatives[3]
        tau1 = fan.representatives[4]
        assert tau0.cone.rays == ((1, 0), (2, 1))
        assert tau1.cone.rays == ((1, 1), (2, 1))
        ms = S.candidate_translations(tau0, tau1, fan.base)
        assert ms == ((-1,), (0,))
        assert list(ms) == oracle.translations_bruteforce(tau0, tau1, fan.base, 10)

    def test_fixed_cone_convention(self):
        base = tate_base()
        n = base.ambient_rank
        zero = F.StackyCone(C.zero_cone(n), L.zero_lattice(n))
        ray = F.stacky_cone([(1, 0)], [(1, 0)], n)
        assert S.candidate_translations(zero, zero, base) == ()
        assert S.candidate_translations(ray, ray, base) == ((0,),)

    def test_singular_slope_raises(self):
        base_cone = F.stacky_cone([(1,)], [(1,)], 1)
        base = S.PolarizedBase(base_cone, 1, (((0,),),), 0)
        c = F.stacky_cone([(1, 1)], [(1, 1)], 2)
        with pytest.raises(S.DefinitenessRequiredError):
            S.candidate_translations(c, c, base)

    def test_translate_preserves_validity(self):
        fan = load("tate_two_arc.json")
        tau0 = fan.representatives[3]
        moved = S.translate(tau0, (2,), fan.base)
        assert moved.cone.rays == ((1, 2), (2, 5))
        back = S.translate(moved, (-2,), fan.base)
        assert back.cone.rays == tau0.cone.rays
        assert back.lattice == tau0.lattice
        # Cone.__eq__ compares rays only; the round trip keeps every field.
        for sc in fan.representatives:
            for m in ((2,), (-3,)):
                there = S.translate(sc, m, fan.base)
                back = S.translate(there, tuple(-x for x in m), fan.base)
                assert back.cone.span_basis == sc.cone.span_basis
                assert back.cone.facet_normals == sc.cone.facet_normals
                assert back.lattice == sc.lattice


class TestTateSuite:
    def test_one_arc_fails_condition_5(self):
        fan = load("tate_one_arc.json")
        violations = S.validate_av_fan(fan)
        assert violations
        assert any(v.startswith("(5)") for v in violations)
        assert any("(1, 2)" in v for v in violations)

    def test_two_arc_validates(self):
        assert S.validate_av_fan(load("tate_two_arc.json")) == []

    def test_two_arc_complete(self):
        assert S.av_complete(load("tate_two_arc.json"))

    def test_one_arc_complete_but_invalid(self):
        # The one-arc translates still tile the admissible half-plane;
        # the fixture fails equivariance, not completeness.
        assert S.av_complete(load("tate_one_arc.json"))

    def test_partial_fan_not_complete(self):
        fan = load("tate_two_arc.json")
        kept = [sc for sc in fan.representatives if sc.cone.rays != ((1, 1), (2, 1))]
        partial = S.av_fan(fan.base, kept)
        assert not S.av_complete(partial)

    def test_two_arc_quotient(self):
        qc = S.quotient_complex(load("tate_two_arc.json"))
        assert qc.cells_by_dim() == {0: 1, 1: 2, 2: 2}
        pairs = [(i, j) for i, j, _ in qc.face_maps]
        assert len(pairs) == len(set(pairs))

    def test_quotient_duplicate_orbit_raises(self):
        fan = load("tate_two_arc.json")
        # Add the ray (1, 1) = T_1 (1, 0): same orbit as an existing cell.
        extra = F.stacky_cone([(1, 1)], [(1, 1)], 2)
        bigger = S.av_fan(fan.base, list(fan.representatives) + [extra])
        with pytest.raises(S.NormalizationError):
            S.quotient_complex(bigger)

    def test_three_arc_equivalent_to_two_arc(self):
        two = load("tate_two_arc.json")
        three = load("tate_three_arc.json")
        assert S.validate_av_fan(three) == []
        assert S.av_complete(three)
        assert S.av_bir_equivalent(two, three)

    def test_index_two_not_equivalent(self):
        two = load("tate_two_arc.json")
        idx2 = load("tate_two_arc_idx2.json")
        assert S.validate_av_fan(idx2) == []
        assert not S.av_bir_equivalent(two, idx2)

    def test_av_minimal_two_arc_stable(self):
        fan = load("tate_two_arc.json")
        m = S.av_minimal(fan)
        assert S.validate_av_fan(m) == []
        # The two top cells cannot merge without breaking equivariance.
        tops = [sc for sc in m.representatives if sc.dim == 2]
        assert len(tops) == 2
        assert S.av_bir_equivalent(fan, m)

    def test_av_minimal_three_arc_coarsens(self):
        three = load("tate_three_arc.json")
        m = S.av_minimal(three)
        assert S.validate_av_fan(m) == []
        assert S.av_bir_equivalent(three, m)
        tops = [sc for sc in m.representatives if sc.dim == 2]
        assert len(tops) == 2

    def test_different_bases_incompatible(self):
        two = load("tate_two_arc.json")
        other_base = S.PolarizedBase(two.base.base_cone, 1, (((2,),),), 0)
        other = S.av_fan(other_base, two.representatives)
        with pytest.raises(S.IncompatibleBaseError):
            S.av_bir_equivalent(two, other)


def ref_jacobian_form(num_vertices, edges, base_cone, torus_rank=0):
    """`jacobian_form` before one tree walk gave all paths: one search of
    the tree per chord, and cycles as sparse dicts."""
    b = base_cone.ambient_rank
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    chords = []
    for idx, (u, v, _) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
        else:
            chords.append(idx)
    if len({find(x) for x in range(num_vertices)}) != 1:
        raise S.ConnectivityError("graph is not connected")
    adjacency = {v: [] for v in range(num_vertices)}
    for idx in tree:
        u, v, _ = edges[idx]
        adjacency[u].append((v, idx, 1))
        adjacency[v].append((u, idx, -1))

    def tree_path(u, v):
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for y, idx, sgn in adjacency[x]:
                if y not in prev:
                    prev[y] = (x, idx, sgn)
                    stack.append(y)
        coeffs = {}
        x = v
        while prev[x] is not None:
            px, idx, sgn = prev[x]
            coeffs[idx] = sgn
            x = px
        return coeffs

    cycles = []
    for idx in chords:
        u, v, _ = edges[idx]
        coeffs = tree_path(v, u)
        coeffs[idx] = 1
        cycles.append(coeffs)
    q = []
    for ci in cycles:
        row = []
        for cj in cycles:
            total = [0] * b
            for idx, a in ci.items():
                c = cj.get(idx, 0)
                if c:
                    total = [t + a * c * x for t, x in zip(total, edges[idx][2])]
            row.append(tuple(total))
        q.append(tuple(row))
    return S.PolarizedBase(base_cone, len(chords), tuple(q), torus_rank)


def _random_multigraph(rng, connected=True):
    """A seeded multigraph on 1–7 vertices over a base of rank 1–3: a
    random spanning tree (or a forest with two components) plus extra
    edges, loops and parallel edges among them, in shuffled order."""
    n = rng.randint(2 if not connected else 1, 7)
    b = rng.randint(1, 3)
    order = list(range(n))
    rng.shuffle(order)
    cut = n if connected else rng.randint(1, n - 1)
    edges = []
    for i in range(1, n):
        if i == cut:
            continue
        lo, hi = (0, cut) if i < cut else (cut, n)
        edges.append((order[i], order[rng.randrange(lo, i)]))
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.25:
            u = rng.randrange(n)
            edges.append((u, u))
        elif kind < 0.5 and edges:
            edges.append(rng.choice(edges))
        elif connected:
            edges.append((rng.randrange(n), rng.randrange(n)))
    rng.shuffle(edges)
    lengths = [tuple(rng.randint(-3, 3) for _ in range(b)) for _ in edges]
    e = [tuple(int(i == j) for j in range(b)) for i in range(b)]
    return n, [(u, v, ln) for (u, v), ln in zip(edges, lengths)], F.stacky_cone(e, e, b)


class TestJacobian:
    def test_theta_graph(self):
        num_vertices, edges, base_cone, torus_rank = load("theta_graph.json")
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
        assert base.m_rank == 2
        assert S.validate_form(base) == []
        d1 = (1, 0, 0)
        d2 = (0, 1, 0)
        d3 = (0, 0, 1)
        expected = (
            (tuple(a + b for a, b in zip(d1, d2)), tuple(-x for x in d2)),
            (tuple(-x for x in d2), tuple(a + b for a, b in zip(d2, d3))),
        )
        u = ((-1, 1), (0, -1))
        assert _gen.congruent_by(base.q_matrix, expected, u) or _gen.congruent_by(
            base.q_matrix, expected, ((1, 0), (0, 1))
        )

    def test_loop_graph(self):
        num_vertices, edges, base_cone, torus_rank = load("loop_graph.json")
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
        assert base.m_rank == 1
        assert S.validate_form(base) == []

    def test_tree_gives_rank_zero(self):
        num_vertices, edges, base_cone, torus_rank = load("path_graph.json")
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
        assert base.m_rank == 0
        assert S.validate_form(base) == []

    def test_zero_length_rejected(self):
        num_vertices, edges, base_cone, torus_rank = load("zero_loop_graph.json")
        base = S.jacobian_form(num_vertices, edges, base_cone, torus_rank)
        assert S.validate_form(base)

    def test_disconnected_raises(self):
        _, _, base_cone, _ = load("loop_graph.json")
        with pytest.raises(S.ConnectivityError):
            S.jacobian_form(3, [(0, 1, (1,))], base_cone, 0)

    def test_matches_reference(self):
        rng = random.Random(2026)
        ranks = set()
        for _ in range(600):
            graph = _random_multigraph(rng)
            got, want = S.jacobian_form(*graph), ref_jacobian_form(*graph)
            assert (got.m_rank, got.q_matrix) == (want.m_rank, want.q_matrix)
            ranks.add(got.m_rank)
        assert {0, 1, 2, 3} <= ranks

    def test_disconnected_matches_reference(self):
        rng = random.Random(7)
        for _ in range(100):
            graph = _random_multigraph(rng, connected=False)
            with pytest.raises(S.ConnectivityError):
                S.jacobian_form(*graph)
            with pytest.raises(S.ConnectivityError):
                ref_jacobian_form(*graph)

    def test_congruent_by(self):
        q1 = (((2,), (0,)), ((0,), (3,)))
        u = ((0, 1), (1, 0))
        q2 = (((3,), (0,)), ((0,), (2,)))
        assert _gen.congruent_by(q1, q2, u)
        assert not _gen.congruent_by(q1, q1, u)


class TestReferenceSubdivision:
    def test_standard_r2(self):
        fan = S.reference_subdivision([(1, 0), (0, 1)], 2)
        assert F.validate(fan) == []
        assert F.is_complete(fan)
        assert len(F.maximal_cones(fan)) == 4

    def test_with_diagonals(self):
        fan = S.reference_subdivision([(1, 0), (0, 1), (1, 1), (1, -1)], 2)
        assert F.validate(fan) == []
        assert F.is_complete(fan)
        assert len(F.maximal_cones(fan)) == 8

    def test_braid_and_coordinates_r3(self):
        # The 6 orderings of the coordinates, each cut by the coordinate
        # planes into one chamber per sign pattern it meets: 24 in all.
        vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)]
        fan = S.reference_subdivision(vectors, 3)
        assert F.validate(fan) == []
        assert F.is_complete(fan)
        assert len(F.maximal_cones(fan)) == 24

    def test_degenerate_raises(self):
        with pytest.raises(S.ArrangementDegenerateError):
            S.reference_subdivision([(1, 0), (2, 0)], 2)

    def test_rank_zero(self):
        fan = S.reference_subdivision([], 0)
        assert fan.ambient_rank == 0

    def test_join_with_barycenter(self):
        q = C.from_rays([(1, 0), (0, 1)], 2)
        cells = _gen.join_with_barycenter(q, [C.ray_cone((1, 0), 2), C.ray_cone((0, 1), 2)])
        assert all(c.dim == 2 for c in cells)
        assert C.cone_covered_by(q, cells)


class TestOracles:
    def test_cover_sample_two_arc(self):
        fan = load("tate_two_arc.json")
        covered, total = oracle.cover_sample_av(fan, 50, 3)
        assert covered == total == 50

    def test_cover_sample_partial_fan_misses(self):
        fan = load("tate_two_arc.json")
        kept = [sc for sc in fan.representatives if sc.cone.rays != ((1, 1), (2, 1))]
        partial = S.av_fan(fan.base, kept)
        covered, total = oracle.cover_sample_av(partial, 50, 3)
        assert covered < total

    def test_cover_sample_reproducible(self):
        fan = load("tate_two_arc.json")
        assert oracle.cover_sample_av(fan, 30, 9) == oracle.cover_sample_av(fan, 30, 9)


# --- Orbit normal form ------------------------------------------------------
#
# The ref_* functions below are the box searches that the orbit form
# (`_OrbitForms.of`) replaced: each scans `candidate_translations` for
# every pair of cones.  They are kept here as the reference for the
# normal-form code.

_GEN_SPEC = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(gen)


def ref_face_orbit_witness(face_sc, reps, base):
    """(rep, m) with T_m(rep) == face_sc, or None."""
    for rho in reps:
        if rho.dim != face_sc.dim or rho.dim == 0:
            continue
        for m in S.candidate_translations(face_sc, rho, base):
            if S.translate(rho, m, base) == face_sc:
                return rho, m
    return None


def ref_orbit_classes(fan, strict=False):
    base = fan.base
    classes = []
    for sc in F._sort_stacky(fan.representatives):
        duplicate = False
        for other in classes:
            if other.dim != sc.dim:
                continue
            if sc.dim == 0:
                duplicate = True
            else:
                for m in S.candidate_translations(other, sc, base):
                    if S.translate(sc, m, base) == other:
                        duplicate = True
                        break
            if duplicate:
                break
        if duplicate:
            if strict:
                raise S.NormalizationError(
                    f"representatives {other.cone.rays} and {sc.cone.rays} "
                    f"lie in the same translation orbit"
                )
            continue
        classes.append(sc)
    return classes


def ref_validate_av_fan(fan):
    """The violation list with check (5) in its own pass and check (3)
    decided by ref_face_orbit_witness."""
    base = fan.base
    out = list(S.validate_form(base))
    if out:
        return ["base form invalid: " + v for v in out]
    reps = list(fan.representatives)
    for sc in reps:
        if sc.ambient_rank != base.ambient_rank:
            return [f"representative {sc.cone.rays} has wrong ambient rank"]
        out.extend(F.validate_stacky_cone(sc))
        for ray in sc.cone.rays:
            n, nprime, _ = S.split_point(base, ray)
            if not C.member(base.base_cone.cone, n):
                out.append(f"ray {ray} has base part outside the base cone")
            elif not S.admissible_point(n, nprime, base):
                out.append(f"ray {ray} is not an admissible point")
            if is_zero(n) and not is_zero(nprime):
                out.append(f"ray {ray} has zero base part but nonzero N part")
    if out:
        return out
    bc = S._OrbitForms(base).base_cone
    if not any(sc == bc for sc in reps):
        out.append("(7): base cone σ0×{0}×{0} is not among the representatives")
    if not any(sc.cone.rays == () for sc in reps):
        out.append("(3): zero cone missing from representatives")
    for i, t1 in enumerate(reps):
        for j, t2 in enumerate(reps):
            if j < i:
                continue
            for m in S.candidate_translations(t1, t2, base):
                if i == j and is_zero(m):
                    continue
                moved = S.translate(t2, m, base)
                inter = C.intersect_cones(t1.cone, moved.cone)
                if inter.dim == 0:
                    continue
                if not (
                    ref_is_face_of(inter, t1.cone) and ref_is_face_of(inter, moved.cone)
                ):
                    out.append(
                        f"(1): {t1.cone.rays} and T_{m}{t2.cone.rays} do not "
                        f"meet along a common face"
                    )
                    continue
                if F._restrict(t1.lattice, inter) != F._restrict(moved.lattice, inter):
                    out.append(
                        f"(4): lattices disagree on the overlap of "
                        f"{t1.cone.rays} and T_{m}{t2.cone.rays}"
                    )
    for t in reps:
        for m in S.candidate_translations(t, t, base):
            if is_zero(m):
                continue
            moved = S.translate(t, m, base)
            inter = C.intersect_cones(t.cone, moved.cone)
            for x in inter.rays:
                nb, _, _ = S.split_point(base, x)
                if not is_zero(S.q_hom(base, m, nb)):
                    out.append(
                        f"(5): {x} in the overlap of {t.cone.rays} with its "
                        f"T_{m}-translate is not fixed: T_{m}{x} = "
                        f"{translate_vector(base, x, m)}"
                    )
    for t in reps:
        for f in C.faces(t.cone):
            if f.rays == () or f.rays == t.cone.rays:
                continue
            face_sc = F.induced_stacky_cone(f, t.lattice)
            if ref_face_orbit_witness(face_sc, reps, base) is None:
                out.append(
                    f"(3): face {f.rays} of {t.cone.rays} is not a translate "
                    f"of any representative"
                )
    return out


def ref_quotient_complex(fan):
    base = fan.base
    cells = ref_orbit_classes(fan, strict=True)
    face_maps = []
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if i == j or a.dim >= b.dim:
                continue
            if a.dim == 0:
                face_maps.append((i, j, tuple([0] * base.m_rank)))
                continue
            witnesses = []
            for m in S.candidate_translations(b, a, base):
                moved = S.translate(a, m, base)
                if ref_is_face_of(moved.cone, b.cone) and moved.lattice == F._restrict(
                    b.lattice, moved.cone
                ):
                    witnesses.append(m)
            if len(witnesses) > 1:
                raise S.NormalizationError(
                    f"multiple face morphisms between cells {a.cone.rays} "
                    f"and {b.cone.rays}: {witnesses}"
                )
            if witnesses:
                face_maps.append((i, j, witnesses[0]))
    return S.QuotientComplex(tuple(cells), tuple(face_maps))


def ref_av_complete(fan):
    base = fan.base
    cells = ref_orbit_classes(fan)
    D = base.base_cone.dim + base.m_rank + base.torus_rank
    if D == 0:
        return True
    tops = [c for c in cells if c.dim == D]
    if not tops:
        return False
    for c in cells:
        if c.dim in (0, D):
            continue
        if not any(
            ref_is_face_of(S.translate(c, m, base).cone, rho.cone)
            for rho in tops
            for m in S.candidate_translations(rho, c, base)
        ):
            return False
    adjacency = {i: set() for i in range(len(tops))}
    for ti, top in enumerate(tops):
        for ridge in ref_facets(top.cone):
            p = C.interior_point(ridge)
            p_base = S.split_point(base, p)[0]
            if C.contains_point(base.base_cone.cone, p_base) != C.RELATIVE_INTERIOR:
                continue
            if ridge.dim == 0:
                # Every top has the zero face, which `candidate_translations`
                # finds no translate for.
                owners = list(range(len(tops)))
            else:
                ridge_sc = F.induced_stacky_cone(ridge, top.lattice)
                owners = [
                    rj
                    for rj, rho in enumerate(tops)
                    for m in S.candidate_translations(ridge_sc, rho, base)
                    if ref_is_face_of(ridge, S.translate(rho, m, base).cone)
                ]
            if len(owners) != 2:
                return False
            adjacency[ti].update(owners)
    seen = {0}
    stack = [0]
    while stack:
        for j in adjacency[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(tops)


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _translation_fans(seed):
    """Seeded Tate k-arc fans, k = 1–4 at index 1 and k = 2–4 at index 2
    (k = 1 has no index-2 lattice path), and the g = 2 torus grid."""
    rng = random.Random(seed)
    fans = []
    for index, ks in ((1, (1, 2, 3, 4)), (2, (2, 3, 4))):
        for k in ks:
            shifts = [rng.randint(-2, 2) for _ in range(2 * k)]
            fans.append(gen.tate_arc_fan(k, index, shifts))
    fans.append(gen.torus_grid_fan(1))
    return fans


def _mutants(fan, rng):
    """The fan with one representative dropped, with a translate of one
    added, and with a translate of a positive cell added on twice its lattice."""
    base = fan.base
    reps = list(fan.representatives)
    i = rng.randrange(len(reps))
    j = rng.randrange(len(reps))
    cell = rng.choice([sc for sc in reps if sc.dim > 0])
    m = tuple(rng.choice((-1, 1)) for _ in range(base.m_rank))
    n = fan.ambient_rank
    even = L.canonicalize([[2 * (a == b) for b in range(n)] for a in range(n)], n)
    doubled = L.intersect(cell.lattice, even)
    return [
        S.av_fan(base, reps[:i] + reps[i + 1 :]),
        S.av_fan(base, reps + [S.translate(reps[j], m, base)]),
        S.av_fan(base, reps + [S.translate(F.StackyCone(cell.cone, doubled), m, base)]),
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_orbit_form_matches_box_searches(seed):
    rng = random.Random(seed)
    fans = _translation_fans(seed)
    fans += [mutant for fan in fans for mutant in _mutants(fan, rng)]
    outcomes = set()
    for fan in fans:
        valid = _outcome(S.validate_av_fan, fan)
        assert valid == _outcome(ref_validate_av_fan, fan)
        classes = _outcome(lambda f: S._orbit_classes(f, S._OrbitForms(f.base)), fan)
        assert classes == _outcome(ref_orbit_classes, fan)
        assert _outcome(S.av_complete, fan) == _outcome(ref_av_complete, fan)
        quotient = _outcome(S.quotient_complex, fan)
        assert quotient == _outcome(ref_quotient_complex, fan)
        outcomes.add("valid" if valid == [] else "invalid")
        outcomes.add(quotient[0] if isinstance(quotient, tuple) else S.QuotientComplex)
    assert {"valid", "invalid", S.QuotientComplex, S.NormalizationError} <= outcomes


# --- Overlap checks on the tops only ------------------------------------------
#
# validate_av_fan scans the overlaps of the tops (representatives that are
# not a translate of a proper face of one) and scans every pair only when
# the fan is invalid.  ref_validate_av_fan scans every pair always.


def _chord(fan, rng):
    """The fan with the cone on two of its rays that do not span a cell of
    it added, on the full lattice of its span.  The chord's faces are
    representatives, so (3) passes and only the overlap scan rejects it."""
    base = fan.base
    n = fan.ambient_rank
    form = S._OrbitForms(base)
    forms = {form(sc)[0] for sc in fan.representatives}
    rays = [sc for sc in fan.representatives if sc.dim == 1]
    while True:
        r1, r2 = rng.choice(rays), rng.choice(rays)
        m = tuple(rng.randint(-2, 2) for _ in range(base.m_rank))
        ends = {r1.cone.rays[0], S.translate(r2, m, base).cone.rays[0]}
        if len(ends) < 2:
            continue
        chord = F.induced_stacky_cone(C.from_rays(sorted(ends), n), L.full_lattice(n))
        if form(chord)[0] not in forms:
            return S.av_fan(base, list(fan.representatives) + [chord])


@pytest.mark.parametrize("seed", [2, 3])
def test_validate_matches_reference_beyond_tops(seed):
    rng = random.Random(seed)
    fans = _translation_fans(seed) + [gen.torus_grid_fan(2)]
    chords = [
        _chord(fan, rng)
        for fan in fans
        if all(sc.lattice == F._restrict(L.full_lattice(fan.ambient_rank), sc.cone)
               for sc in fan.representatives)
    ]
    fans += [mutant for fan in fans for mutant in _mutants(fan, rng)]
    assert len(chords) == 6
    for fan in fans + chords:
        assert _outcome(S.validate_av_fan, fan) == _outcome(ref_validate_av_fan, fan)
    for fan in chords:
        violations = S.validate_av_fan(fan)
        assert violations and not any(v.startswith("(3)") for v in violations)


def ref_av_minimal(fan):
    """The av_minimal loop with each merge decided by ref_validate_av_fan."""
    base = fan.base
    form = S._OrbitForms(base)
    cells = S._maximal_classes(S._orbit_classes(fan, form), form)
    changed = True
    while changed:
        changed = False
        for i in range(len(cells)):
            for j in range(len(cells)):
                merged = None
                if cells[i].dim != cells[j].dim or cells[i].dim == 0:
                    continue
                for m in S.candidate_translations(cells[i], cells[j], base):
                    if i == j and is_zero(m):
                        continue
                    merged = F.merge_across_wall(cells[i], S.translate(cells[j], m, base))
                    if merged is not None:
                        break
                if merged is None:
                    continue
                new_cells = [c for k, c in enumerate(cells) if k not in (i, j)] + [merged]
                candidate = S._rebuild(base, new_cells, form)[0]
                if not ref_validate_av_fan(candidate):
                    cells = S._maximal_classes(S._orbit_classes(candidate, form), form)
                    changed = True
                    break
            if changed:
                break
    return S._rebuild(base, cells, form)[0]


# Seed 2 holds a merge that only the overlap checks refuse.
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_av_minimal_matches_reference(seed):
    coarsened = 0
    for fan in _translation_fans(seed):
        if S.validate_av_fan(fan):
            continue
        minimal = S.av_minimal(fan)
        assert SER.dumps(minimal) == SER.dumps(ref_av_minimal(fan))
        coarsened += len(minimal.representatives) < len(fan.representatives)
    assert coarsened


def test_torus_grid_3_validates():
    fan = gen.torus_grid_fan(3)
    assert S.validate_av_fan(fan) == []
    assert S.av_complete(fan)
    counts = S.quotient_complex(fan).cells_by_dim()
    assert [counts[d] for d in (1, 2, 3)] == [9, 27, 18]
    assert sum((-1) ** (d - 1) * c for d, c in counts.items() if d > 0) == 0


def test_face_orbit_witness_agrees_with_form():
    for fan in _translation_fans(2):
        base = fan.base
        reps = list(fan.representatives)
        orbit = S._OrbitForms(base)
        forms = {orbit(t)[0]: t for t in reps}
        for t in reps:
            for f in C.faces(t.cone):
                if f.dim == 0:
                    continue
                face_sc = F.induced_stacky_cone(f, t.lattice)
                form, shift = orbit(face_sc)
                witness = ref_face_orbit_witness(face_sc, reps, base)
                assert (witness is None) == (form not in forms)
                if witness is not None:
                    rho, m = witness
                    assert forms[form] == rho
                    rho_shift = orbit(rho)[1]
                    assert m == tuple(a - b for a, b in zip(rho_shift, shift))


@pytest.mark.parametrize("name", ["tate_two_arc.json", "tate_two_arc_idx2.json", "grid"])
def test_orbit_form_is_translation_invariant(name):
    fan = gen.torus_grid_fan(1) if name == "grid" else load(name)
    base = fan.base
    orbit = S._OrbitForms(base)
    for sc in fan.representatives:
        form, shift = orbit(sc)
        unfixed = [r for r in sc.cone.rays if not is_zero(S.split_point(base, r)[0])]
        for m in product(range(-2, 3), repeat=base.m_rank):
            moved = S.translate(sc, m, base)
            moved_form, moved_shift = orbit(moved)
            assert moved_form == form
            if unfixed:
                assert tuple(a + b for a, b in zip(moved_shift, m)) == shift
            else:
                assert moved == sc and moved_shift == shift


def test_multiple_face_maps_raise_normalization_error():
    # Over g = 1, the cone on (1, 0) and (1, 1) has both rays in the orbit
    # of the ray (1, 0): two face maps from the ray cell to the 2-cell.
    base = tate_base()
    full = L.full_lattice(2)
    ray = F.induced_stacky_cone(C.ray_cone((1, 0), 2), full)
    wide = F.StackyCone(C.from_rays([(1, 0), (1, 1)], 2), full)
    zero = F.StackyCone(C.zero_cone(2), L.zero_lattice(2))
    fan = S.av_fan(base, [zero, ray, wide])
    with pytest.raises(S.NormalizationError, match="multiple face morphisms"):
        S.quotient_complex(fan)
    with pytest.raises(S.NormalizationError, match="multiple face morphisms"):
        ref_quotient_complex(fan)


# --- Translation by the shear matrix ----------------------------------------
#
# ref_translate is the translation that `translate` replaced: it moves each
# vector through a fresh Gram matrix and rebuilds the cone with from_rays.


def ref_translate_vector(base, v, m):
    n, nprime, nsecond = S.split_point(base, v)
    G = S.gram(base, n)
    g = base.m_rank
    shift = [sum(m[i] * G[i][j] for i in range(g)) for j in range(g)]
    return tuple(n) + tuple(x + s for x, s in zip(nprime, shift)) + tuple(nsecond)


def ref_translate(sc, m, base):
    rays = [ref_translate_vector(base, r, m) for r in sc.cone.rays]
    if not rays:
        return sc
    cone = C.from_rays(rays, sc.ambient_rank)
    lat = L.canonicalize(
        [ref_translate_vector(base, v, m) for v in sc.lattice.basis], sc.ambient_rank
    )
    return F.StackyCone(cone, lat)


def _fields(sc):
    cone = sc.cone
    return cone.rays, cone.span_basis, cone.facet_normals, sc.lattice


def _cones_and_faces(fan):
    """Each representative and each of its faces, on the induced lattice."""
    out = {}
    for sc in fan.representatives:
        for f in C.faces(sc.cone):
            face_sc = F.induced_stacky_cone(f, sc.lattice)
            out[(f.rays, face_sc.lattice.basis)] = face_sc
    return list(out.values())


def _shear_test_fans():
    """The Tate fixtures, bench/gen.py's Tate fans (k = 1–4 at index 1,
    k = 2–3 at index 2) and its g = 2 grid (k = 1, 2)."""
    rng = random.Random(7)
    fans = [load(name) for name in (
        "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
        "tate_two_arc_idx2.json",
    )]
    for index, ks in ((1, (1, 2, 3, 4)), (2, (2, 3))):
        for k in ks:
            shifts = [rng.randint(-1, 1) for _ in range(2 * k)]
            fans.append(gen.tate_arc_fan(k, index, shifts))
    fans += [gen.torus_grid_fan(1), gen.torus_grid_fan(2)]
    return fans


def test_translate_matches_from_rays():
    dims = set()
    for fan in _shear_test_fans():
        base = fan.base
        for sc in _cones_and_faces(fan):
            dims.add((sc.dim, fan.ambient_rank))
            for m in product(range(-3, 4), repeat=base.m_rank):
                assert _fields(S.translate(sc, m, base)) == _fields(
                    ref_translate(sc, m, base)
                ), (sc, m)
    # Zero, lower-dimensional and full-dimensional cones all occur.
    assert {(0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)} <= dims


# A g = 2 base over the quadrant whose Gram matrices are not diagonal:
# G_(a, b) = [[2a + b, a], [a, a + 2b]], positive definite for (a, b) ≠ 0.
SKEW_Q = (((2, 1), (1, 0)), ((1, 0), (1, 2)))


def _skew_base():
    quadrant = F.stacky_cone([(1, 0), (0, 1)], [(1, 0), (0, 1)], 2)
    return S.PolarizedBase(quadrant, 2, SKEW_Q, 0)


def _random_admissible_cone(rng, base):
    """A cone on 1–3 admissible rays (q·n, G_n p) of slope p/q, |p/q| <= 2."""
    rays = []
    for _ in range(rng.randint(1, 3)):
        n = (0, 0)
        while n == (0, 0):
            n = (rng.randint(0, 2), rng.randint(0, 2))
        q = rng.randint(1, 2)
        p = [rng.randint(-2 * q, 2 * q) for _ in range(2)]
        G = S.gram(base, n)
        nprime = [sum(G[i][j] * p[j] for j in range(2)) for i in range(2)]
        rays.append(tuple(q * x for x in n) + tuple(nprime))
    cone = C.from_rays(rays, 4)
    return F.StackyCone(cone, L.canonicalize(cone.rays, 4))


def test_non_scalar_polarization():
    base = _skew_base()
    assert S.validate_form(base) == []
    rng = random.Random(11)
    for _ in range(20):
        v = tuple(rng.randint(-4, 4) for _ in range(4))
        m = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert translate_vector(base, v, m) == ref_translate_vector(base, v, m)
        G = S.gram(base, v[:2])
        assert S.q_hom(base, m, v[:2]) == tuple(
            sum(m[i] * G[i][j] for i in range(2)) for j in range(2)
        )
    hits = 0
    for _ in range(50):
        c1 = _random_admissible_cone(rng, base)
        c2 = _random_admissible_cone(rng, base)
        found = S.candidate_translations(c1, c2, base)
        assert list(found) == oracle.translations_bruteforce(c1, c2, base, 9)
        hits += bool(found)
        for m in set(found) | {(rng.randint(-3, 3), rng.randint(-3, 3))}:
            assert _fields(S.translate(c2, m, base)) == _fields(ref_translate(c2, m, base))
    assert hits > 0


# --- Candidate scan from affine ray values ----------------------------------
#
# ref_candidate_translations is the scan that affine ray values replaced:
# Fraction slopes, a box with a margin of 1 around the slope-difference
# ranges, and one sheared cone and one intersect_cones per candidate.


def ref_candidate_translations(c1, c2, base):
    g, b = base.m_rank, base.base_rank
    zero = tuple([0] * g)

    def slopes(sc):
        out = []
        for ray in sc.cone.rays:
            n, nprime, _ = S.split_point(base, ray)
            if not is_zero(n):
                out.append(rational_solve(S.gram(base, n), list(nprime)))
        return out

    s1, s2 = (slopes(c1), slopes(c2)) if g else ([], [])
    if not s1 or not s2:
        hit = C.intersect_cones(c1.cone, c2.cone).dim > 0
        return (zero,) if hit else ()
    ranges = []
    for k in range(g):
        lo = min(a[k] for a in s1) - max(a[k] for a in s2)
        hi = max(a[k] for a in s1) - min(a[k] for a in s2)
        ranges.append(range(math.floor(lo) - 1, math.ceil(hi) + 2))
    found = []
    for m in product(*ranges):
        moved = S._shear_cone(c2.cone, S.shear_block(base, m), b)
        if C.intersect_cones(c1.cone, moved).dim > 0:
            found.append(m)
    return tuple(sorted(found))


def _assert_scans_agree(cones, base):
    hits = 0
    for c1 in cones:
        for c2 in cones:
            found = S.candidate_translations(c1, c2, base)
            assert found == ref_candidate_translations(c1, c2, base), (c1, c2)
            hits += bool(found)
    return hits


@pytest.mark.parametrize("seed", [0, 1])
def test_candidate_scan_matches_reference_on_generated_fans(seed):
    for fan in _translation_fans(seed):
        assert _assert_scans_agree(_cones_and_faces(fan), fan.base) > 0


def test_candidate_scan_matches_reference_on_fixtures():
    for fan in _shear_test_fans()[:4]:
        assert _assert_scans_agree(_cones_and_faces(fan), fan.base) > 0


def test_candidate_scan_matches_reference_on_skew_base():
    base = _skew_base()
    rng = random.Random(5)
    cones = [_random_admissible_cone(rng, base) for _ in range(6)]
    cones = [
        F.induced_stacky_cone(f, sc.lattice) for sc in cones for f in C.faces(sc.cone)
    ]
    assert _assert_scans_agree(cones, base) > 0


def _torus_base(g):
    """g = 1 or 2 over the base ray with Q = identity and torus rank 1."""
    q = (((1,),),) if g == 1 else (((1,), (0,)), ((0,), (1,)))
    return S.PolarizedBase(F.stacky_cone([(1,)], [(1,)], 1), g, q, 1)


def _torus_cones(g, rng):
    """14 cones over `_torus_base(g)`, most with a ray of zero base part,
    each on the lattice its rays generate."""
    n = g + 2
    cones = []
    while len(cones) < 14:
        rays = [
            (rng.randint(1, 2),) + tuple(rng.randint(-3, 3) for _ in range(g + 1))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.7:
            rays.append((0,) * (g + 1) + (rng.choice((-1, 1)),))
        cone = C.from_rays(rays, n)
        cones.append(F.StackyCone(cone, L.canonicalize(cone.rays, n)))
    assert any(is_zero(r[:1]) for sc in cones for r in sc.cone.rays)
    return cones


@pytest.mark.parametrize("g", [1, 2])
def test_candidate_scan_matches_reference_with_torus_rays(g):
    # Rays with zero base part are fixed by every T_m, so the box keeps
    # its margin of 1 there.
    cones = _torus_cones(g, random.Random(g))
    assert _assert_scans_agree(cones, _torus_base(g)) > 0


def test_skew_box_is_widened():
    # A point's slope is a matrix-weighted mean of its rays' slopes, which
    # can leave their componentwise range when the Grams are not
    # proportional: here only (-8, -6) meets, while the second slope
    # coordinate of c1's rays is 0 on both rays.
    base = _skew_base()

    def cone(rays):
        c = C.from_rays(rays, 4)
        return F.StackyCone(c, L.canonicalize(c.rays, 4))

    c1 = cone([(1, 0, -40, -20), (0, 1, 20, 0)])
    c2 = cone([(7, 5, 14, 18)])
    assert S.candidate_translations(c1, c2, base) == ((-8, -6),)
    assert oracle.translations_bruteforce(c1, c2, base, 9) == [(-8, -6)]
    assert ref_candidate_translations(c1, c2, base) == ()


def _cofactor_det(G):
    if not G:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1 :] for row in G[1:]])
        for j, x in enumerate(G[0])
    )


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_ray_slope_matches_rational_solve(g):
    rng = random.Random(g)
    seen = 0
    while seen < 40:
        A = [[rng.randint(-3, 3) for _ in range(g)] for _ in range(g)]
        G = [[A[i][j] + A[j][i] for j in range(g)] for i in range(g)]
        q = tuple(tuple((G[i][j],) for j in range(g)) for i in range(g))
        base = S.PolarizedBase(F.stacky_cone([(1,)], [(1,)], 1), g, q, 0)
        nprime = tuple(rng.randint(-5, 5) for _ in range(g))
        ray = (1,) + nprime
        assert S.gram(base, (1,)) == G
        assert det(G) == _cofactor_det(G)
        if rational_rank(G) < g:
            with pytest.raises(S.DefinitenessRequiredError):
                S._ray_slope(base, ray, G)
            continue
        v, d = S._ray_slope(base, ray, G)
        assert d == abs(det(G)) and all(isinstance(x, int) for x in v)
        assert [Fraction(x, d) for x in v] == rational_solve(G, list(nprime))
        seen += 1


# --- Orbit keys, overlaps and containment without translated cones ----------
#
# The ref_* functions below are the code that sheared rays and pulled-back
# functionals replaced: each builds the translated cone with `translate`.
# ref_orbit_form returns the least translate itself; its rays, and its
# lattice basis or None for its span lattice, are the key `_OrbitForms.of`
# returns.


def ref_orbit_form(sc, base):
    zero = tuple([0] * base.m_rank)
    if base.m_rank == 0:
        return sc, zero
    slopes = [S._ray_data(base, r)[1] for r in sc.cone.rays]
    shifts = {tuple(-(x // mu[1]) for x in mu[0]) for mu in slopes if mu}
    if not shifts:
        return sc, zero
    return min(
        ((S.translate(sc, s, base), s) for s in shifts),
        key=lambda pair: (pair[0].cone.rays, pair[0].lattice.basis),
    )


def ref_overlap_violations(reps, base):
    out = []
    unfixed = []
    for i, t1 in enumerate(reps):
        for j, t2 in enumerate(reps):
            if j < i:
                continue
            for m in S.candidate_translations(t1, t2, base):
                if i == j and is_zero(m):
                    continue
                moved = S.translate(t2, m, base)
                inter = C.intersect_cones(t1.cone, moved.cone)
                if i == j:
                    for x in inter.rays:
                        nb, _, _ = S.split_point(base, x)
                        if not is_zero(S.q_hom(base, m, nb)):
                            unfixed.append(
                                f"(5): {x} in the overlap of {t1.cone.rays} with "
                                f"its T_{m}-translate is not fixed: T_{m}{x} = "
                                f"{translate_vector(base, x, m)}"
                            )
                if not (
                    ref_is_face_of(inter, t1.cone) and ref_is_face_of(inter, moved.cone)
                ):
                    out.append(
                        f"(1): {t1.cone.rays} and T_{m}{t2.cone.rays} do not "
                        f"meet along a common face"
                    )
                    continue
                if F._restrict(t1.lattice, inter) != F._restrict(moved.lattice, inter):
                    out.append(
                        f"(4): lattices disagree on the overlap of "
                        f"{t1.cone.rays} and T_{m}{t2.cone.rays}"
                    )
    return out + unfixed


def ref_maximal_classes(cells, base):
    out = []
    for c in cells:
        is_max = True
        for rho in cells:
            if rho.dim <= c.dim:
                continue
            if c.dim == 0:
                is_max = False
                break
            for m in S.candidate_translations(c, rho, base):
                if C.contains_cone(S.translate(rho, m, base).cone, c.cone):
                    is_max = False
                    break
            if not is_max:
                break
        if is_max:
            out.append(c)
    return out


def _ordered_faults(cones, form):
    """The overlap messages in the order `validate_av_fan` lists them: the
    (1)/(4) messages, then the (5) messages, each in scan order."""
    return sorted(S._overlap_violations(cones, form), key=lambda v: v.startswith("(5)"))


def _assert_translation_checks_agree(cones, base):
    """Form key and shift of every cone and face, the overlap messages of
    every pair in order, and the maximal classes, against the references.
    Returns the number of overlap messages."""
    orbit = S._OrbitForms(base)
    for sc in _cones_and_faces(S.av_fan(base, cones)):
        key, shift = orbit(sc)
        form, ref_shift = ref_orbit_form(sc, base)
        lattice = None if form.lattice == F.span_lattice(form.cone) else form.lattice.basis
        assert (key, shift) == ((form.cone.rays, lattice), ref_shift), sc
    messages = _outcome(_ordered_faults, cones, S._OrbitForms(base))
    assert messages == _outcome(ref_overlap_violations, cones, base)
    maximal = S._maximal_classes(cones, S._OrbitForms(base))
    assert maximal == ref_maximal_classes(cones, base)
    return len(messages)


def _translation_check_fans(seed):
    rng = random.Random(seed)
    fans = _translation_fans(seed)
    chords = [
        _chord(fan, rng)
        for fan in fans
        if all(sc.lattice == F.span_lattice(sc.cone) for sc in fan.representatives)
    ]
    return fans + chords + [mutant for fan in fans for mutant in _mutants(fan, rng)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_translation_checks_match_reference_on_generated_fans(seed):
    messages = 0
    for fan in _translation_check_fans(seed):
        if not S.local_violations(fan):
            messages += _assert_translation_checks_agree(list(fan.representatives), fan.base)
    assert messages > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_translation_checks_match_reference_on_grids(k):
    rng = random.Random(k)
    fan = gen.torus_grid_fan(k)
    for other in [fan, _chord(fan, rng)] + _mutants(fan, rng):
        _assert_translation_checks_agree(list(other.representatives), other.base)


def test_translation_checks_match_reference_on_index_two_lattices():
    # Unsaturated lattices: check (4) shears the second lattice.
    fan = load("tate_two_arc_idx2.json")
    reps = list(fan.representatives)
    assert any(sc.lattice != F.span_lattice(sc.cone) for sc in reps)
    _assert_translation_checks_agree(reps, fan.base)
    for mutant in _mutants(fan, random.Random(4)):
        _assert_translation_checks_agree(list(mutant.representatives), fan.base)


def test_translation_checks_match_reference_on_skew_base():
    base = _skew_base()
    rng = random.Random(6)
    cones = [_random_admissible_cone(rng, base) for _ in range(6)]
    assert _assert_translation_checks_agree(cones, base) > 0


@pytest.mark.parametrize("g", [1, 2])
def test_translation_checks_match_reference_with_torus_rays(g):
    cones = _torus_cones(g, random.Random(10 + g))
    assert _assert_translation_checks_agree(cones, _torus_base(g)) > 0


@pytest.mark.parametrize("name", [
    "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
    "tate_two_arc_idx2.json", "grid1", "grid2",
])
def test_translation_checks_build_no_translated_cone(name, monkeypatch):
    # The three checks build no translate and no cone at all
    # (`_from_incidences` makes every face and cut), even on index-2
    # lattices.  On a fan whose lattices are all span lattices,
    # `av_bir_equivalent` of the fan and its `av_minimal` intersects no
    # cones for the overlay.
    fan = gen.torus_grid_fan(int(name[4:])) if name.startswith("grid") else load(name)
    saturated = all(sc.lattice == F.span_lattice(sc.cone) for sc in fan.representatives)
    minimal = S.av_minimal(fan) if saturated else None
    calls = []
    for module, fn in (
        (S, "translate"), (S, "_shear_cone"), (C, "_from_incidences"), (C, "intersect_cones"),
    ):
        original = getattr(module, fn)
        monkeypatch.setattr(
            module,
            fn,
            lambda *args, _fn=original, _name=fn: calls.append(_name) or _fn(*args),
        )
    S.validate_av_fan(fan)
    S.av_complete(fan)
    _outcome(S.quotient_complex, fan)
    assert calls == []
    if saturated:
        S.av_bir_equivalent(fan, minimal)
        assert "intersect_cones" not in calls


def test_torus_grid_1_violations_are_pinned():
    with open(FIXTURES / "av" / "torus_grid_1_validate.json") as fh:
        assert S.validate_av_fan(gen.torus_grid_fan(1)) == json.load(fh)


@pytest.mark.parametrize("name", [
    "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
    "tate_two_arc_idx2.json", "grid2",
])
def test_ray_data_once_per_ray_tuple_per_call(name, monkeypatch):
    # `_ray_data` runs once per ray per call, which is stricter than once
    # per ray tuple: a face shares the data of its parent's rays.
    fan = gen.torus_grid_fan(2) if name == "grid2" else load(name)
    minimal = S.av_minimal(fan)
    calls = []
    original = S._ray_data
    monkeypatch.setattr(
        S, "_ray_data", lambda base, ray: calls.append(ray) or original(base, ray)
    )
    for call in (
        lambda: S.validate_av_fan(fan),
        lambda: S.av_minimal(fan),
        lambda: S.av_bir_equivalent(fan, minimal),
    ):
        calls.clear()
        call()
        assert calls and len(calls) == len(set(calls))


# --- av_bir_equivalent against the overlay of every translate -----------------
#
# ref_av_covers is the cover test that compares the overlay lattices on
# every translate; `_av_covers` skips the translates where both lattices
# are span lattices.


def ref_av_covers(pieces1, pieces2, form):
    base = form.base
    for t1 in pieces1:
        translates = []
        for rho in pieces2:
            for m in form.candidates(t1, rho):
                translates.append(S.translate(rho, m, base))
        if not C.cone_covered_by(t1.cone, [t.cone for t in translates]):
            return False
        if MIN._overlay_mismatch([t1], translates) is not None:
            return False
    return True


def ref_av_bir_equivalent(f1, f2):
    form = S._OrbitForms(f1.base)
    m1 = S._maximal_classes(S._orbit_classes(f1, form), form)
    m2 = S._maximal_classes(S._orbit_classes(f2, form), form)
    return ref_av_covers(m1, m2, form) and ref_av_covers(m2, m1, form)


def test_av_bir_equivalent_matches_reference():
    pairs = []
    for seed in range(4):
        for fan in _translation_fans(seed):
            if not S.validate_av_fan(fan):
                pairs.append((fan, S.av_minimal(fan)))
    tate = [
        load(name)
        for name in (
            "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
            "tate_two_arc_idx2.json",
        )
    ]
    pairs += [(a, b) for a in tate for b in tate if a is not b]
    grids = [gen.torus_grid_fan(2), gen.torus_grid_fan(3)]
    pairs += [(grids[0], grids[1])] + [(g, S.av_minimal(g)) for g in grids]
    verdicts = set()
    for a, b in pairs:
        for f1, f2 in ((a, b), (b, a)):
            verdict = S.av_bir_equivalent(f1, f2)
            assert verdict == ref_av_bir_equivalent(f1, f2)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    # The Tate two-arc fan and its index-2 root have the same cones, so
    # their False comes from the lattices alone.
    two, idx2 = tate[1], tate[3]
    assert [sc.cone for sc in two.representatives] == [
        sc.cone for sc in idx2.representatives
    ]
    assert not S.av_bir_equivalent(two, idx2)


# --- The per-call table -------------------------------------------------------


def test_translation_box_matches_reference_on_seeded_ray_data():
    # The box from `_Slopes` against the parent's box from the rays'
    # (G_n, slope) lists: on the skew base (non-proportional Grams, so the
    # radius widens the margin), over torus rays with zero base part
    # (margin 1) and on the Tate and grid fans (exact ranges).
    rng = random.Random(23)
    skew = _skew_base()
    cases = [(skew, [_random_admissible_cone(rng, skew) for _ in range(12)])]
    cases += [(_torus_base(g), _torus_cones(g, random.Random(30 + g))) for g in (1, 2)]
    for fan in (load("tate_three_arc.json"), load("tate_two_arc_idx2.json"),
                gen.torus_grid_fan(2)):
        cases.append((fan.base, list(fan.representatives)))
    boxes = 0
    for base, cones in cases:
        data = [[S._ray_data(base, r) for r in sc.cone.rays] for sc in cones]
        for d1, d2 in product(data, repeat=2):
            if any(mu for _, mu in d1) and any(mu for _, mu in d2):
                box = S._translation_box(S._Slopes(d1), S._Slopes(d2))
                assert box == ref_translation_box(d1, d2)
                boxes += 1
    assert boxes > 300


def _av_minimal_test_fans():
    """The four Tate fixtures, the grids k = 1, 2 and the translation
    check fans of seeds 1–3, invalid ones included."""
    fans = [load(name) for name in (
        "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
        "tate_two_arc_idx2.json",
    )]
    fans += [gen.torus_grid_fan(1), gen.torus_grid_fan(2)]
    for seed in (1, 2, 3):
        fans += _translation_check_fans(seed)
    return fans


def _drops_one_or_two(cells, kept):
    """Is `kept` the list `cells` with the entries at one or two indices
    removed, in order?"""
    return any(
        kept == [c for k, c in enumerate(cells) if k not in (i, j)]
        for i in range(len(cells))
        for j in range(len(cells))
    )


def test_av_minimal_keeps_a_merge_iff_the_merged_fan_validates(monkeypatch):
    # Each merge `av_minimal` tries is one `_rebuild` of its cells with one
    # or two of them replaced by their merge, and its last `_rebuild` is of
    # the final cells.  Replaying the loop from the recorded merges, with a
    # merge kept iff `validate_av_fan` passes on the merged fan and the
    # loop going on from that fan's maximal classes, gives the cells of
    # every next merge and the final cells; each kept merge's tops are
    # those maximal classes.
    rebuilds = []
    original = S._rebuild

    def recording(base, cells, form):
        result = original(base, cells, form)
        rebuilds.append((list(cells), result))
        return result

    monkeypatch.setattr(S, "_rebuild", recording)
    kept = refused = 0
    for fan in _av_minimal_test_fans():
        rebuilds.clear()
        S.av_minimal(fan)
        form = S._OrbitForms(fan.base)
        cells = S._maximal_classes(S._orbit_classes(fan, form), form)
        *tried, (final, _) = rebuilds
        for new_cells, (candidate, tops) in tried:
            assert _drops_one_or_two(cells, new_cells[:-1])
            if S.validate_av_fan(candidate) == []:
                cells = S._maximal_classes(S._orbit_classes(candidate, form), form)
                assert tops == cells
                kept += 1
            else:
                refused += 1
        assert final == cells
    assert kept > 10 and refused > 100


def test_av_minimal_scans_containment_only_on_its_input(monkeypatch):
    # `_maximal_classes` runs once, on the input; each kept merge goes on
    # from the tops of `_rebuild`'s face closure, and no merge calls
    # `validate_av_fan`.
    calls = []

    def counting(name):
        original = getattr(S, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_maximal_classes", "validate_av_fan"):
        monkeypatch.setattr(S, name, counting(name))
    coarsened = 0
    for fan in _translation_fans(1) + [gen.torus_grid_fan(2)]:
        calls.clear()
        minimal = S.av_minimal(fan)
        assert calls == ["_maximal_classes"]
        coarsened += len(minimal.representatives) < len(fan.representatives)
    assert coarsened


@pytest.mark.parametrize("name", [
    "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
    "tate_two_arc_idx2.json", "grid1", "grid2",
])
def test_face_table_restricts_each_face_walk_once_per_call(name, monkeypatch):
    # During one call, `_OrbitForms.faces` restricts the lattice of each
    # distinct (rays, lattice) cell it is asked for once per proper nonzero
    # face, however often it is asked, unless the lattice is the span
    # lattice, whose restriction to each face is that face's span lattice.
    fan = gen.torus_grid_fan(int(name[4:])) if name.startswith("grid") else load(name)
    asked, restricted, inside = {}, [], [False]
    faces, restrict = S._OrbitForms.faces, F._restrict_to_span

    def counted_faces(self, sc):
        walk = sc.cone.face_walk
        asked[sc.cone.rays, sc.lattice.basis] = 0 if sc.saturated else sum(
            1 for rays, _, _ in walk if rays and rays != sc.cone.rays
        )
        inside[0] = True
        try:
            return faces(self, sc)
        finally:
            inside[0] = False

    def counted_restrict(lattice, span_basis):
        restricted.append(inside[0])
        return restrict(lattice, span_basis)

    monkeypatch.setattr(S._OrbitForms, "faces", counted_faces)
    monkeypatch.setattr(F, "_restrict_to_span", counted_restrict)
    cells = restrictions = 0
    for call in (S.av_minimal, S.validate_av_fan, S.quotient_complex):
        asked.clear()
        restricted.clear()
        _outcome(call, fan)
        assert restricted.count(True) == sum(asked.values())
        cells += len(asked)
        restrictions += restricted.count(True)
    assert cells
    assert (restrictions > 0) == (name == "tate_two_arc_idx2.json")


def test_only_the_orbit_table_works_out_ray_data_blocks_and_base_cone():
    # Inside `semiabelian`, the per-ray data, the shear blocks, the
    # translated cones and the embedded base cone (the table's
    # `base_cone`) are worked out only by `_OrbitForms`, once per call;
    # only `q_hom`, which takes no table, reads a shear block directly.
    tree = ast.parse(pathlib.Path(S.__file__).read_text())
    guarded = {"_ray_data", "shear_block", "_shear_cone"}
    allowed = {"_OrbitForms", "q_hom"}
    readers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in guarded:
                readers.add((getattr(top, "name", None), node.id))
    assert {name for owner, name in readers if owner == "_OrbitForms"} == guarded
    assert {owner for owner, _ in readers} <= allowed


def test_only_the_face_table_restricts_a_face_walk():
    # Inside `semiabelian`, only `_OrbitForms.faces` reads a cell's face
    # walk and restricts lattices to it; `av_complete` reads the faces of
    # span-lattice stand-ins from it, and the (4) overlap check restricts
    # to its overlap's span.
    tree = ast.parse(pathlib.Path(S.__file__).read_text())
    readers = {"face_walk": set(), "_restrict_to_span": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(top.name)
    assert readers == {
        "face_walk": {"_OrbitForms"},
        "_restrict_to_span": {"_OrbitForms", "_overlap_violations"},
    }


# --- Orbit keys of span lattices, and covers tested on rays first -----------


def _fixture_or_grid(name):
    return gen.torus_grid_fan(int(name[4:])) if name.startswith("grid") else load(name)


_TATE_AND_GRIDS = [
    "tate_one_arc.json", "tate_two_arc.json", "tate_three_arc.json",
    "tate_two_arc_idx2.json", "grid1", "grid2",
]


@pytest.mark.parametrize("name", ["tate_two_arc.json", "tate_three_arc.json", "grid1"])
def test_span_and_index_two_lattices_key_apart(name):
    # A cell on its span lattice keys with None and an index-2 sublattice
    # of it with its sheared basis, so the two forms differ; each translate
    # of either keys as its own cone, with the shift moved by m.
    fan = _fixture_or_grid(name)
    base, n = fan.base, fan.ambient_rank
    orbit = S._OrbitForms(base)
    cells = 0
    for sc in fan.representatives:
        if not any(any(S.split_point(base, r)[0]) for r in sc.cone.rays):
            continue
        assert sc.lattice == F.span_lattice(sc.cone)
        first, *rest = sc.lattice.basis
        half = F.StackyCone(sc.cone, L.canonicalize([[2 * x for x in first]] + rest, n))
        form, shift = orbit(sc)
        half_form, half_shift = orbit(half)
        assert form[1] is None and half_form[1] is not None
        assert form[0] == half_form[0] and shift == half_shift
        for m in product(range(-2, 3), repeat=base.m_rank):
            for cell, (key, s) in ((sc, (form, shift)), (half, (half_form, half_shift))):
                moved = S.translate(cell, m, base)
                assert S._OrbitForms(base)(moved) == (key, tuple(a - b for a, b in zip(s, m)))
        cells += 1
    assert cells


def test_first_moving_ray_picks_the_least_translate_on_the_skew_base():
    # Over the skew base the Grams of two rays order the candidate shifts
    # differently, so a ray other than the first with nonzero base part
    # can pick another shift; the form still matches the least translate.
    base = _skew_base()
    rng = random.Random(7)
    orbit = S._OrbitForms(base)
    disagree = 0
    for _ in range(200):
        sc = _random_admissible_cone(rng, base)
        form, ref_shift = ref_orbit_form(sc, base)
        lattice = None if form.lattice == F.span_lattice(form.cone) else form.lattice.basis
        assert orbit(sc) == ((form.cone.rays, lattice), ref_shift)
        slopes = orbit.slopes(sc.cone.rays)
        shifts = {tuple(-(x // slopes.D) for x in row) for row in slopes.rows}
        picks = {
            min(shifts, key=lambda s: translate_vector(base, r, s))
            for r in sc.cone.rays
            if any(r[:2])
        }
        disagree += len(picks) > 1
    assert disagree


def test_saturated_lattices_are_never_put_in_hnf_for_a_form(monkeypatch):
    # During `validate_av_fan`, `quotient_complex` and `av_minimal`, no
    # orbit form of a lattice whose basis is its span basis calls
    # `lattice.canonicalize`; the forms of the index-2 fixture's other
    # lattices still do.
    state = {"in": None}
    canonical = {True: 0, False: 0}
    forms = {True: 0, False: 0}
    of, canonicalize = S._OrbitForms.of, L.canonicalize

    def counted_of(self, rays, lattice, span_basis):
        state["in"] = lattice.basis == span_basis
        forms[state["in"]] += 1
        try:
            return of(self, rays, lattice, span_basis)
        finally:
            state["in"] = None

    def counted_canonicalize(vectors, ambient_rank):
        if state["in"] is not None:
            canonical[state["in"]] += 1
        return canonicalize(vectors, ambient_rank)

    monkeypatch.setattr(S._OrbitForms, "of", counted_of)
    monkeypatch.setattr(L, "canonicalize", counted_canonicalize)
    for name in _TATE_AND_GRIDS:
        fan = _fixture_or_grid(name)
        for call in (S.validate_av_fan, S.quotient_complex, S.av_minimal):
            _outcome(call, fan)
    assert forms[True] > 0 and canonical[True] == 0
    assert forms[False] > 0 and canonical[False] > 0


def test_orbit_table_inside_matches_a_built_translate():
    # c ⊆ T_m(ρ) on rays against `contains_cone` on the built translate.
    held = checked = 0
    for fan in _translation_check_fans(1):
        if S.local_violations(fan):
            continue
        base, reps = fan.base, list(fan.representatives)
        form = S._OrbitForms(base)
        for c, rho in product(reps, repeat=2):
            for m in form.candidates(c, rho):
                inside = form.inside(c, rho, m)
                assert inside == C.contains_cone(S.translate(rho, m, base).cone, c.cone)
                held += inside
                checked += 1
    assert 0 < held < checked


def test_covers_split_only_pieces_in_no_single_translate(monkeypatch):
    # `av_bir_equivalent(f, av_minimal(f))` runs the split of
    # `cones.uncovered_point` exactly for the pieces, in order, that lie in
    # no single translate of the other side (decided on built translates),
    # and runs it at least once, so the fallback is exercised.
    split = []
    uncovered = C.uncovered_point
    monkeypatch.setattr(
        C, "uncovered_point",
        lambda target, pieces: split.append(target) or uncovered(target, pieces),
    )
    fallbacks = 0
    for name in _TATE_AND_GRIDS:
        fan = _fixture_or_grid(name)
        minimal = S.av_minimal(fan)
        base = fan.base
        form = S._OrbitForms(base)
        m1 = S._maximal_classes(S._orbit_classes(fan, form), form)
        m2 = S._maximal_classes(S._orbit_classes(minimal, form), form)
        expected = [
            t1.cone
            for pieces1, pieces2 in ((m1, m2), (m2, m1))
            for t1 in pieces1
            if not any(
                C.contains_cone(S.translate(rho, m, base).cone, t1.cone)
                for rho in pieces2
                for m in form.candidates(t1, rho)
            )
        ]
        split.clear()
        assert S.av_bir_equivalent(fan, minimal)
        assert split == expected
        fallbacks += len(split)
    assert fallbacks > 0


def test_local_violations_test_each_distinct_ray_once(monkeypatch):
    # Over the Tate base, rays with base part outside σ0 and rays with
    # zero base part and nonzero N part, each shared by two cones, give the
    # messages of the per-ray reference in the same order, from one test
    # per distinct ray.
    base = tate_base()
    pairs = [
        ((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (-1, 2)),
        ((-1, 2), (0, 1)), ((1, 0), (2, 1)),
    ]
    cones = [C.from_rays(pair, 2) for pair in pairs]
    reps = [F.StackyCone(cone, F.span_lattice(cone)) for cone in cones]
    fan = S.av_fan(base, reps)
    tested = []
    original = S._ray_violations
    monkeypatch.setattr(
        S, "_ray_violations", lambda b, ray: tested.append(ray) or original(b, ray)
    )
    out = S.validate_av_fan(fan)
    assert out == ref_validate_av_fan(fan)
    assert len(tested) == len(set(tested)) == len(
        {r for sc in fan.representatives for r in sc.cone.rays}
    )
    assert any("outside the base cone" in v for v in out)
    assert any("not an admissible point" in v for v in out)
    assert any("zero base part" in v for v in out)


def test_only_the_orbit_table_and_its_peers_shear_vectors():
    # Inside `semiabelian`, `_shear` is read only by `_shear_cone`,
    # `_OrbitForms` and `_overlap_violations`, so a containment test on
    # rays goes through `_OrbitForms.inside`.
    tree = ast.parse(pathlib.Path(S.__file__).read_text())
    readers = {
        top.name
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_shear"
    }
    assert readers == {"_shear_cone", "_OrbitForms", "_overlap_violations"}


# --- One face table: tops, first faults and face maps ------------------------


def test_first_fault_stops_the_overlap_scan(monkeypatch):
    # The fast path of `validate_av_fan` and the merge test of `av_minimal`
    # ask only whether there is a fault, so the scan stops at the first: on
    # the Tate 1-arc fan, which fails check (5), `any` makes fewer
    # `cut_pass` calls than the full list.
    fan = load("tate_one_arc.json")
    reps = list(fan.representatives)
    calls = []
    cut_pass = C.cut_pass
    monkeypatch.setattr(C, "cut_pass", lambda *args: calls.append(1) or cut_pass(*args))
    assert any(S._overlap_violations(reps, S._OrbitForms(fan.base)))
    first = len(calls)
    calls.clear()
    faults = list(S._overlap_violations(reps, S._OrbitForms(fan.base)))
    full = len(calls)
    assert 0 < first < full
    assert len(faults) > 1
    # `validate_av_fan` stops its scan of the tops at their first fault,
    # then lists the faults of every pair.
    tops = S._OrbitForms(fan.base).tops(reps)
    calls.clear()
    assert any(S._overlap_violations(tops, S._OrbitForms(fan.base)))
    on_tops = len(calls)
    calls.clear()
    assert S.validate_av_fan(fan) == _ordered_faults(reps, S._OrbitForms(fan.base))
    assert len(calls) == on_tops + 2 * full


@pytest.mark.parametrize("name", _TATE_AND_GRIDS)
def test_quotient_complex_reads_each_cells_faces_once(name, monkeypatch):
    # The face maps come from one pass over each cell's face orbits, in
    # cell order, and the zero cell maps to every other cell at m = 0.
    # Errors are the reference's: two representatives of one orbit (Tate
    # 1-arc) raise before any face is read, and a pair of cells with two
    # face maps (grid k = 1) after that pass.
    fan = _fixture_or_grid(name)
    asked = []
    faces = S._OrbitForms.faces
    monkeypatch.setattr(
        S._OrbitForms, "faces", lambda self, sc: asked.append(sc) or faces(self, sc)
    )
    qc = _outcome(S.quotient_complex, fan)
    cells = _outcome(S._orbit_classes, fan, S._OrbitForms(fan.base), True)
    assert asked == (cells if isinstance(cells, list) else [])
    monkeypatch.undo()
    assert qc == _outcome(ref_quotient_complex, fan)
    if isinstance(qc, S.QuotientComplex):
        zero = tuple([0] * fan.base.m_rank)
        assert [m for i, _, m in qc.face_maps if i == 0] == [zero] * (len(qc.cells) - 1)


def test_zero_face_is_the_ridge_of_a_torus_line():
    # Over a base of rank 0 with g = 0 and r = 1, the tops are rays and
    # their one ridge is the zero face, which both rays of the line bound.
    base = S.PolarizedBase(F.StackyCone(C.zero_cone(0), L.zero_lattice(0)), 0, (), 1)
    zero = F.StackyCone(C.zero_cone(1), L.zero_lattice(1))
    plus, minus = (F.stacky_cone([v], [(1,)], 1) for v in ((1,), (-1,)))
    for reps, complete in (([zero, plus, minus], True), ([zero, plus], False)):
        fan = S.av_fan(base, reps)
        assert S.validate_av_fan(fan) == []
        assert S.av_complete(fan) == ref_av_complete(fan) == complete


def test_av_complete_early_answers():
    # D = 0: a point base with g = r = 0, whose admissible region is {0}.
    point = S.PolarizedBase(F.StackyCone(C.zero_cone(0), L.zero_lattice(0)), 0, (), 0)
    cases = [(S.av_fan(point, [point.base_cone]), True)]
    # Over the Tate base (D = 2): only the zero cone and a ray, so no top
    # of dimension 2; and the two-arc fan with the ray (3, 1) through a
    # top's interior, a lower cell that is no face of any translated top.
    two = load("tate_two_arc.json")
    zero, ray = (sc for sc in two.representatives if sc.dim < 2 and sc.cone.rays != ((2, 1),))
    inner = F.stacky_cone([(3, 1)], [(3, 1)], 2)
    cases += [
        (S.av_fan(two.base, [zero, ray]), False),
        (S.av_fan(two.base, list(two.representatives) + [inner]), False),
    ]
    for fan, complete in cases:
        assert S.av_complete(fan) == ref_av_complete(fan) == complete


def test_av_bir_equivalent_false_on_supports():
    # Dropping a top of the Tate two-arc fan leaves half of each period
    # uncovered: its pieces lie in the full fan, but not conversely.
    two = load("tate_two_arc.json")
    partial = S.av_fan(
        two.base, [sc for sc in two.representatives if sc.cone.rays != ((1, 1), (2, 1))]
    )
    form = S._OrbitForms(two.base)
    m_two, m_partial = (
        S._maximal_classes(S._orbit_classes(f, form), form) for f in (two, partial)
    )
    assert S._av_covers(m_partial, m_two, form)
    assert not S._av_covers(m_two, m_partial, form)
    for f1, f2 in ((two, partial), (partial, two)):
        assert not S.av_bir_equivalent(f1, f2)
        assert not ref_av_bir_equivalent(f1, f2)


def test_maximal_classes_test_containment_only_between_tops(monkeypatch):
    pairs = []
    candidates = S._OrbitForms.candidates
    monkeypatch.setattr(
        S._OrbitForms,
        "candidates",
        lambda self, c, rho: pairs.append((c, rho)) or candidates(self, c, rho),
    )
    tested = 0
    for fan in _translation_check_fans(1):
        if S.local_violations(fan):
            continue
        form = S._OrbitForms(fan.base)
        cells = S._orbit_classes(fan, form)
        tops = form.tops(cells)
        pairs.clear()
        maximal = S._maximal_classes(cells, form)
        assert all(c in tops and rho in tops for c, rho in pairs)
        tested += len(pairs)
        assert maximal == ref_maximal_classes(cells, fan.base)
    assert tested


def _theta_fan():
    """The halved break-divisor fan of the theta graph (two vertices,
    edges eₖ = (0, 1) for k = 0, 1, 2) over the cone of edge lengths
    σ0 = cone((1,1,0), (0,1,1), (1,0,1)) in Z³, whose Gram matrices are not
    proportional.  Edge k has cycle vector w(eₖ).  For each spanning tree
    {eₖ}, with chords i ≠ k, and each halving h ∈ {0,1}², one cell on the
    full lattice is generated by (2ρ, Σᵢ sᵢ·w(eᵢ)) for the rays ρ of σ0 and
    sᵢ ∈ {hᵢ·ρᵢ, (hᵢ+1)·ρᵢ}.  The fan is the face closure of the cells."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sigma0 = F.stacky_cone([(1, 1, 0), (0, 1, 1), (1, 0, 1)], e, 3)
    base = S.jacobian_form(2, [(0, 1, v) for v in e], sigma0)
    w = [(-1, -1), (1, 0), (0, 1)]
    assert base.q_matrix == tuple(
        tuple(tuple(w[k][i] * w[k][j] for k in range(3)) for j in range(2)) for i in range(2)
    )
    cells = []
    for k in range(3):
        chords = [i for i in range(3) if i != k]
        for h in product((0, 1), repeat=2):
            gens = [
                tuple(2 * x for x in rho)
                + tuple(sum(s * w[i][c] for s, i in zip(ss, chords)) for c in range(2))
                for rho in sigma0.cone.rays
                for ss in product(*[(hi * rho[i], (hi + 1) * rho[i]) for hi, i in zip(h, chords)])
            ]
            cells.append(F.StackyCone(C.from_rays(gens, 5), L.full_lattice(5)))
    return S._rebuild(base, cells, S._OrbitForms(base))[0]


def test_theta_graph_fan_over_a_base_of_rank_three():
    # A multi-parameter base: b = 3, g = 2.  The fan is valid and complete,
    # its quotient has one face map per proper nonzero face of each cell
    # plus the zero cell's, and its 12 tops are its maximal classes.
    fan = _theta_fan()
    assert len(fan.representatives) == 241
    assert S.validate_av_fan(fan) == []
    qc = S.quotient_complex(fan)
    assert qc.cells_by_dim() == {0: 1, 1: 12, 2: 60, 3: 96, 4: 60, 5: 12}
    faces = sum(
        1 for c in qc.cells for rays, _, _ in c.cone.face_walk if rays and rays != c.cone.rays
    )
    assert len(qc.face_maps) == faces + len(qc.cells) - 1 == 2688
    assert S.av_complete(fan)
    form = S._OrbitForms(fan.base)
    maximal = S._maximal_classes(S._orbit_classes(fan, form), form)
    assert len(maximal) == 12 and all(c.dim == 5 for c in maximal)
