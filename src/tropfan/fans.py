"""Stacky fans: fans whose cones carry finite-index sublattices.

A StackyCone is a pointed rational cone together with a finite-index
sublattice of Z^n intersected with its span.  A StackyFan is a finite,
face-closed, lattice-compatible collection of such cones in a fixed
ambient rank.  All predicates here are exact.
"""

from dataclasses import dataclass
from operator import mul

from . import cones as C
from . import lattice as L
from ._linalg import dot


class SupportMismatchError(ValueError):
    pass


class CompletenessRequiredError(ValueError):
    pass


@dataclass(frozen=True)
class StackyCone:
    cone: C.Cone
    lattice: L.Sublattice

    def __post_init__(self):
        if self.cone.ambient_rank != self.lattice.ambient_rank:
            raise L.DimensionError("cone and lattice live in different ambient ranks")

    @property
    def ambient_rank(self):
        return self.cone.ambient_rank

    @property
    def dim(self):
        return self.cone.dim

    @property
    def saturated(self):
        """Is the lattice the span lattice Zⁿ ∩ Span(cone)?"""
        return self.lattice.basis == self.cone.span_basis

    def __repr__(self):
        return f"StackyCone(rays={self.cone.rays}, lattice={self.lattice.basis})"


def merge_across_wall(p, q):
    """The StackyCone p ∪ q when it is a pointed convex cone with p ∩ q a
    common facet and the lattices of p and q agree; else None.

    Equal lattices give one span, so one span basis and one dimension d.
    For d >= 1 the union is convex across a common facet iff exactly one
    facet normal h_p of p is negative on some ray of q, exactly one h_q
    of q is negative on some ray of p, and h_p, h_q vanish on the same
    rays (the wall).  Then every other facet inequality holds on both
    cones, and together they cut conv(p ∪ q) back to p on one side of
    the wall and to q on the other.

    The union U is built from the two pieces, with no double description:
    - Its facet normals are p's without h_p and q's without h_q.  Each
      such h is nonnegative on U, and U ∩ {h = 0} contains a facet of p
      or of q, of dimension d − 1, so h is a facet of U; and every facet
      of U meets p or q in a facet other than h_p, h_q.  Normals are
      lifted from the common span basis in one canonical way, so a
      hyperplane that bounds both pieces gives one tuple.
    - U contains a line iff some generator is tight on every one of these
      normals, because the minimal face of U is generated by the
      generators in it; e.g. two adjacent quadrants make a half-plane.
    - Its rays are the generators that `cones.extreme_generators` keeps.

    A zero cone has no facet normal, so the first scan refuses it.  The
    scans, and `extreme_generators` after them, are plain loops over
    `sum(map(mul, h, r))`, with no generator per normal.  Most pairs that
    `minimal_fan` tries stop at the first scan.  Every pair that passes
    both scans and the wall test ends in `extreme_generators`, which
    refuses a union that holds a line at the first generator tight on
    every normal.
    """
    if p.lattice != q.lattice or p.cone.span_basis != q.cone.span_basis:
        return None
    h_p = _only_cutting_normal(p.cone, q.cone)
    if h_p is None:
        return None
    h_q = _only_cutting_normal(q.cone, p.cone)
    if h_q is None:
        return None
    gens = sorted(set(p.cone.rays) | set(q.cone.rays))
    for r in gens:
        if (sum(map(mul, h_p, r)) == 0) != (sum(map(mul, h_q, r)) == 0):
            return None
    normals = sorted(
        {h for h in p.cone.facet_normals if h != h_p}
        | {h for h in q.cone.facet_normals if h != h_q}
    )
    rays = C.extreme_generators(gens, normals)
    if rays is None:
        return None
    union = C.Cone(p.ambient_rank, tuple(rays), p.cone.span_basis, tuple(normals))
    return StackyCone(union, p.lattice)


def _only_cutting_normal(a, b):
    """The one facet normal of a negative on some ray of b, else None.

    Most pieces tried in a wall merge do not share a wall, so the scan
    returns None at the second cutting normal it meets, without testing
    the rest.  It is the first test of most merge attempts, so it is
    written as plain loops over `sum(map(mul, h, r))` (the body of
    `_linalg.dot`), with no generator or call per normal.
    """
    found = None
    rays = b.rays
    for h in a.facet_normals:
        for r in rays:
            if sum(map(mul, h, r)) < 0:
                if found is not None:
                    return None
                found = h
                break
    return found


def stacky_cone(rays, lattice_gens, ambient_rank):
    """Convenience constructor from ray and lattice generator lists."""
    return StackyCone(
        C.from_rays(rays, ambient_rank), L.canonicalize(lattice_gens, ambient_rank)
    )


def induced_stacky_cone(cone, parent_lattice):
    """The face `cone` with the lattice induced from a parent's lattice."""
    return StackyCone(cone, _restrict(parent_lattice, cone))


def _restrict(lattice, cone):
    """lattice ∩ Span(cone) (`_restrict_to_span` of the cone's span basis)."""
    return _restrict_to_span(lattice, cone.span_basis)


def _restrict_to_span(lattice, span_basis):
    """lattice ∩ Span, for the saturated HNF basis of a span's lattice.
    On the full span it is the lattice itself.  When the lattice holds
    every vector of the saturated span basis, Zⁿ ∩ Span ⊆ L ∩ Span ⊆
    Zⁿ ∩ Span, so it is the span lattice, with no intersection: this is
    the case of a saturated parent lattice, such as the full lattice, on
    each of its cone's faces.
    """
    n, d = lattice.ambient_rank, len(span_basis)
    if d == n:
        return lattice
    span = L.Sublattice(n, tuple(span_basis))
    if lattice.rank >= d and L.contains(lattice, span):
        return span
    return L.intersect(lattice, span)


def span_lattice(cone):
    """Z^n ∩ Span(cone) as a Sublattice: the cone's span basis is already
    saturated and in HNF."""
    return L.Sublattice(cone.ambient_rank, cone.span_basis)


def validate_stacky_cone(sc):
    """Violation strings for a single StackyCone (empty list when fine)."""
    out = []
    if sc.lattice.rank != sc.cone.dim:
        out.append(
            f"lattice rank {sc.lattice.rank} != cone dimension {sc.cone.dim} "
            f"for cone with rays {sc.cone.rays}"
        )
        return out
    if not sc.saturated and L.saturate(sc.lattice) != span_lattice(sc.cone):
        out.append(
            f"lattice on cone with rays {sc.cone.rays} is not finite-index in "
            f"the span lattice (saturation mismatch)"
        )
    return out


@dataclass(frozen=True)
class StackyFan:
    ambient_rank: int
    cones: tuple  # tuple of StackyCone, sorted by (dim, rays)

    def __repr__(self):
        return f"StackyFan(rank {self.ambient_rank}, {len(self.cones)} cones)"


def _sort_stacky(scs):
    return tuple(sorted(scs, key=lambda sc: (sc.dim, sc.cone.rays)))


def make_fan(stacky_cones, ambient_rank):
    """Assemble a StackyFan from explicit cones (no closure computed)."""
    return StackyFan(ambient_rank, _sort_stacky(stacky_cones))


def fan_from_maximal(maximal, ambient_rank):
    """Face-closure of a list of maximal StackyCones, with induced lattices.

    Raises ValueError if two parents induce different lattices on a shared
    face (such data cannot come from a stacky fan).
    """
    seen = {}
    for sc in maximal:
        for face in sc.cone.face_walk:
            rays, span_basis, _ = face
            lattice = _restrict_to_span(sc.lattice, span_basis)
            prev = seen.get(rays)
            if prev is None:
                seen[rays] = StackyCone(C.face_cone(sc.cone, face), lattice)
            elif prev.lattice != lattice:
                raise ValueError(
                    f"inconsistent induced lattices on shared face with rays {rays}"
                )
    if not seen:
        seen[()] = StackyCone(C.zero_cone(ambient_rank), L.zero_lattice(ambient_rank))
    return StackyFan(ambient_rank, _sort_stacky(seen.values()))


def validate(fan):
    """List of violation strings; empty means the fan is valid."""
    out = []
    n = fan.ambient_rank
    by_rays = {}
    for sc in fan.cones:
        if sc.ambient_rank != n:
            out.append(f"cone with rays {sc.cone.rays} has wrong ambient rank")
            continue
        out.extend(validate_stacky_cone(sc))
        if sc.cone.rays in by_rays:
            out.append(f"duplicate cone with rays {sc.cone.rays}")
        by_rays[sc.cone.rays] = sc
    if out:
        return out
    if () not in by_rays:
        out.append("zero cone missing")
    # Face closure with induced lattices.
    for sc in fan.cones:
        for rays, span_basis, _ in sc.cone.face_walk:
            other = by_rays.get(rays)
            if other is None:
                out.append(
                    f"face with rays {rays} of cone {sc.cone.rays} missing from fan"
                )
            elif other.lattice != _restrict_to_span(sc.lattice, span_basis):
                out.append(
                    f"lattice incompatibility on face with rays {rays} "
                    f"of cone {sc.cone.rays}"
                )
    # Pairwise intersections are common faces.
    cs = list(fan.cones)
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            c1, c2 = cs[i].cone, cs[j].cone
            if not C.common_face(c1, c2):
                out.append(
                    f"intersection of cones {c1.rays} and {c2.rays} "
                    f"is not a common face"
                )
    return out


def maximal_cones(fan):
    """StackyCones contained in no cone of the fan of higher dimension, in
    the fan's order.

    A cone of the fan's top dimension is maximal at once, and the zero
    cone is not when any cone has positive dimension.  This tests
    containment, not only faces, so that a cone inside another without
    being a face of it (which only an invalid fan has) is not maximal
    either.  A face's rays are rays of the cone, so a ray-set test
    settles every proper face first: it looks only among the cones that
    hold the face's first ray, through a ray → cones index built once per
    call.  Only cones of dimension ≥ 2 can have a proper nonzero face, so
    only theirs enter the index as ray sets, and each dimension is read
    once.  A ray (a cone of dimension 1) is settled by the index alone:
    every indexed cone holding it has dimension ≥ 2 and contains it.
    Only the cones the ray-set test leaves are scanned for containment.
    """
    cones = fan.cones
    dims = [len(sc.cone.span_basis) for sc in cones]
    top = max(dims, default=0)
    holding = {}  # ray -> the (dim, ray set) of each cone of dim ≥ 2 holding it
    for sc, d in zip(cones, dims):
        if d >= 2:
            rays = frozenset(sc.cone.rays)
            for r in sc.cone.rays:
                holding.setdefault(r, []).append((d, rays))
    out = []
    for sc, d in zip(cones, dims):
        rays = sc.cone.rays
        if d < top and (
            not rays
            or (d == 1 and rays[0] in holding)
            or any(e > d and big.issuperset(rays) for e, big in holding.get(rays[0], ()))
            or any(e > d and C.contains_cone(o.cone, sc.cone) for o, e in zip(cones, dims))
        ):
            continue
        out.append(sc)
    return out


def supports_equal(f1, f2):
    return C.union_difference(
        [sc.cone for sc in maximal_cones(f1)], [sc.cone for sc in maximal_cones(f2)]
    ) is None


def is_complete(fan):
    """Does the fan's support cover all of R^n?  Decided on the support
    alone (`cones.covers_space` of its cones), so the answer holds for
    an invalid fan too: a cone listed twice, overlapping cones, or a
    lower-dimensional cone that lies in no single top."""
    return C.covers_space([sc.cone for sc in fan.cones], fan.ambient_rank)


def smallest_containing(fan, cone):
    """The fan cone of least dimension containing `cone`, or None."""
    best = None
    for sc in fan.cones:
        if C.contains_cone(sc.cone, cone):
            if best is None or sc.dim < best.dim:
                best = sc
    return best


def is_subdivision(fine, coarse):
    """Equal supports, refined cones, and induced lattices."""
    morphism = FanMorphismData(fine, coarse)  # DimensionError if ranks differ
    return supports_equal(fine, coarse) and is_representable(morphism)


def is_root_construction(fine, coarse):
    """Same cones, lattices shrunk by finite index."""
    if fine.ambient_rank != coarse.ambient_rank:
        raise L.DimensionError("ambient ranks differ")
    fine_by_rays = {sc.cone.rays: sc for sc in fine.cones}
    coarse_by_rays = {sc.cone.rays: sc for sc in coarse.cones}
    if set(fine_by_rays) != set(coarse_by_rays):
        return False
    for rays, sc in fine_by_rays.items():
        other = coarse_by_rays[rays]
        if not L.contains(other.lattice, sc.lattice):
            return False
        if L.index_in(sc.lattice, other.lattice) == L.INFINITE:
            return False
    return True


@dataclass(frozen=True)
class FanMorphismData:
    """A morphism of fan data over the identity of the ambient lattice."""

    source: StackyFan
    target: StackyFan

    def __post_init__(self):
        if self.source.ambient_rank != self.target.ambient_rank:
            raise L.DimensionError("ambient ranks differ")

    def is_valid(self):
        return all(
            parent is not None and L.contains(parent, lat)
            for lat, parent in _parent_lattices(self)
        )


def _parent_lattices(m):
    """(source lattice, parent lattice restricted to the source cone's
    span) for each source cone of the morphism, where the parent is the
    smallest target cone containing it; the second is None when no target
    cone contains it."""
    for sc in m.source.cones:
        parent = smallest_containing(m.target, sc.cone)
        yield sc.lattice, parent and _restrict(parent.lattice, sc.cone)


def is_representable(m):
    """Every source lattice equals the target lattice restricted to its span."""
    return all(lat == parent for lat, parent in _parent_lattices(m))


def is_proper(m):
    """Every target cone is covered by the source cones it contains."""
    src = [sc.cone for sc in m.source.cones]
    for tc in maximal_cones(m.target):
        inside = [c for c in src if C.contains_cone(tc.cone, c)]
        if not C.cone_covered_by(tc.cone, inside):
            return False
    return True


def stellar_subdivision(fan, v):
    """Subdivide at a ray through v: every cone containing v is replaced
    by the joins of v with its facets not containing v.  Lattices are the
    induced ones, so the result is a subdivision of the input."""
    v = tuple(v)
    new_maximal = []
    for sc in maximal_cones(fan):
        if not C.member(sc.cone, v):
            new_maximal.append(sc)
            continue
        # v lies in the cone, so it lies in the facet of normal h iff
        # ⟨h, v⟩ = 0; a facet's rays are those tight on its normal.
        facets = sorted(
            C.tight_rays(sc.cone, 1 << k)
            for k, h in enumerate(sc.cone.facet_normals)
            if dot(h, v)
        )
        for rays in facets:
            joined = C.from_rays(rays + [v], fan.ambient_rank)
            new_maximal.append(StackyCone(joined, _restrict(sc.lattice, joined)))
    return fan_from_maximal(new_maximal, fan.ambient_rank)


def common_refinement(f1, f2):
    """Overlay of two fans with equal supports.

    Cells are pairwise intersections of cones; each cell carries the
    intersection of the lattices of the smallest cones of each fan
    containing it (restricted to the cell's span).
    """
    if f1.ambient_rank != f2.ambient_rank:
        raise L.DimensionError("ambient ranks differ")
    if not supports_equal(f1, f2):
        raise SupportMismatchError("fans have different supports")
    n = f1.ambient_rank
    cells = {}
    for a in f1.cones:
        for b in f2.cones:
            inter = C.intersect_cones(a.cone, b.cone)
            cells[inter.rays] = inter
    out = []
    for cell in cells.values():
        p1 = smallest_containing(f1, cell)
        p2 = smallest_containing(f2, cell)
        lat = _restrict(L.intersect(p1.lattice, p2.lattice), cell)
        out.append(StackyCone(cell, lat))
    return StackyFan(n, _sort_stacky(out))
