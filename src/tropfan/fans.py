"""Stacky fans: fans whose cones carry finite-index sublattices.

A StackyCone is a pointed rational cone together with a finite-index
sublattice of Z^n intersected with its span.  A StackyFan is a finite,
face-closed, lattice-compatible collection of such cones in a fixed
ambient rank.  All predicates here are exact.
"""

from dataclasses import dataclass

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

    def __repr__(self):
        return f"StackyCone(rays={self.cone.rays}, lattice={self.lattice.basis})"


def merge_across_wall(p, q):
    """The StackyCone p ∪ q when it is a pointed convex cone with p ∩ q a
    common facet and the lattices of p and q agree; else None.

    Equal lattices give one span and one dimension d.  For d >= 1 the
    union is convex across a common facet iff exactly one facet normal
    h_p of p is negative on some ray of q, exactly one h_q of q is
    negative on some ray of p, and h_p, h_q vanish on the same rays
    (the wall).  Then every other facet inequality holds on both cones,
    and together they cut conv(p ∪ q) back to p on one side of the wall
    and to q on the other.
    """
    if p.lattice != q.lattice or p.dim != q.dim or p.dim == 0:
        return None
    h_p = _only_cutting_normal(p.cone, q.cone)
    h_q = _only_cutting_normal(q.cone, p.cone)
    if h_p is None or h_q is None:
        return None
    rays = p.cone.rays + q.cone.rays
    if any((dot(h_p, r) == 0) != (dot(h_q, r) == 0) for r in rays):
        return None
    try:
        union = C.from_rays(rays, p.ambient_rank)
    except C.PointednessError:
        return None  # e.g. two adjacent quadrants make a half-plane
    return StackyCone(union, p.lattice)


def _only_cutting_normal(a, b):
    """The one facet normal of a negative on some ray of b, else None."""
    cutting = [h for h in a.facet_normals if any(dot(h, r) < 0 for r in b.rays)]
    return cutting[0] if len(cutting) == 1 else None


def stacky_cone(rays, lattice_gens, ambient_rank):
    """Convenience constructor from ray and lattice generator lists."""
    return StackyCone(
        C.from_rays(rays, ambient_rank), L.canonicalize(lattice_gens, ambient_rank)
    )


def induced_stacky_cone(cone, parent_lattice):
    """The face `cone` with the lattice induced from a parent's lattice."""
    return StackyCone(cone, _restrict(parent_lattice, cone))


def _restrict(lattice, cone):
    """lattice ∩ Span(cone)."""
    return L.intersect(lattice, span_lattice(cone))


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
    sat = L.saturate(sc.lattice)
    if sat != span_lattice(sc.cone):
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
        for f in C.faces(sc.cone):
            fs = induced_stacky_cone(f, sc.lattice)
            prev = seen.get(f.rays)
            if prev is None:
                seen[f.rays] = fs
            elif prev.lattice != fs.lattice:
                raise ValueError(
                    f"inconsistent induced lattices on shared face with rays {f.rays}"
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
        for f in C.faces(sc.cone):
            other = by_rays.get(f.rays)
            if other is None:
                out.append(
                    f"face with rays {f.rays} of cone {sc.cone.rays} missing from fan"
                )
            elif other.lattice != _restrict(sc.lattice, f):
                out.append(
                    f"lattice incompatibility on face with rays {f.rays} "
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
    """StackyCones that are not proper faces of another cone of the fan."""
    out = []
    for sc in fan.cones:
        if not any(
            other is not sc
            and other.dim > sc.dim
            and C.contains_cone(other.cone, sc.cone)
            for other in fan.cones
        ):
            out.append(sc)
    return out


def supports_equal(f1, f2):
    return C.union_difference(
        [sc.cone for sc in maximal_cones(f1)], [sc.cone for sc in maximal_cones(f2)]
    ) is None


def is_complete(fan):
    """Does the fan's support cover all of R^n?  Ridge-pairing criterion."""
    n = fan.ambient_rank
    if n == 0:
        return True
    maxs = maximal_cones(fan)
    if n == 1:
        rays = {sc.cone.rays for sc in maxs if sc.dim == 1}
        return ((1,),) in rays and ((-1,),) in rays
    tops = [sc.cone for sc in maxs if sc.dim == n]
    if len(tops) != len(maxs) or not tops:
        return False
    # Each ridge (codim-1 face of a top cone) must bound exactly two tops,
    # and the tops must be connected through ridges.
    by_ridge = {}
    for i, c in enumerate(tops):
        for f in C.facets(c):
            by_ridge.setdefault(f.rays, []).append(i)
    if any(len(members) != 2 for members in by_ridge.values()):
        return False
    adj = {i: set() for i in range(len(tops))}
    for a, b in by_ridge.values():
        adj[a].add(b)
        adj[b].add(a)
    return _connected(adj)


def _connected(adj):
    """Is the graph on 0..len(adj)−1 with neighbour sets adj connected?"""
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(adj)


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
        for sc in self.source.cones:
            parent = smallest_containing(self.target, sc.cone)
            if parent is None:
                return False
            if not L.contains(_restrict(parent.lattice, sc.cone), sc.lattice):
                return False
        return True


def is_representable(m):
    """Every source lattice equals the target lattice restricted to its span."""
    for sc in m.source.cones:
        parent = smallest_containing(m.target, sc.cone)
        if parent is None:
            return False
        if sc.lattice != _restrict(parent.lattice, sc.cone):
            return False
    return True


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
        for f in C.facets(sc.cone):
            if C.member(f, v):
                continue
            joined = C.from_rays(list(f.rays) + [v], fan.ambient_rank)
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
