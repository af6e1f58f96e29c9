"""Reference implementations shared by the test suite: the plain
constructions that library decisions are compared against."""

import tropfan.cones as C
import tropfan.fans as F
import tropfan.lattice as L
import tropfan.minimal as MIN
import tropfan.render as R
import tropfan.semiabelian as S
from tropfan._linalg import dot


def ref_is_face_of(f, cone):
    """Is f a face of cone?  The smallest face of cone holding f's rays is
    cut out by the facet normals vanishing on all of them, and f is a face
    iff `from_rays` of that face's rays gives f."""
    if not all(C.member(cone, r) for r in f.rays):
        return False
    if f == cone:
        return True
    vanishing = [h for h in cone.facet_normals if all(dot(h, r) == 0 for r in f.rays)]
    face_rays = [r for r in cone.rays if all(dot(h, r) == 0 for h in vanishing)]
    if f.dim == 0:
        return cone.dim == 0 or not face_rays
    if not vanishing:
        return False
    return C.from_rays(face_rays, cone.ambient_rank) == f


def ref_extreme_generators(gens, normals):
    """`cones.extreme_generators` as one zero mask per generator, built
    before any is tested: None when a mask holds every normal (the cone
    holds a line), else the generators whose mask no other generator's
    mask covers."""
    tight = [C._zero_mask(g, normals) for g in gens]
    if (1 << len(normals)) - 1 in tight:
        return None
    return [
        g
        for j, g in enumerate(gens)
        if not any(i != j and tight[j] & t == tight[j] for i, t in enumerate(tight))
    ]


def ref_facets(cone):
    """One `from_rays` per facet normal, of the rays on which it vanishes."""
    fs = [
        C.from_rays([r for r in cone.rays if dot(h, r) == 0], cone.ambient_rank)
        for h in cone.facet_normals
    ]
    return sorted(fs, key=lambda f: f.rays)


def ref_restrict_to_span(lattice, span_vectors):
    """L intersected with the rational span of `span_vectors`:
    intersect(L, saturate(<span_vectors>))."""
    span = L.saturate(L.canonicalize(span_vectors, lattice.ambient_rank))
    return L.intersect(lattice, span)


def ref_translation_box(data1, data2):
    """`semiabelian._translation_box` from the rays' (G_n, slope) lists,
    with the slopes brought over one denominator and the Grams compared on
    every call."""
    grams1 = [G for G, mu in data1 if mu]
    grams2 = [G for G, mu in data2 if mu]
    rows1, D1 = S._over_common_denominator([mu for _, mu in data1 if mu])
    rows2, D2 = S._over_common_denominator([mu for _, mu in data2 if mu])
    den = D1 * D2
    lo = [min(a) * D2 - max(b) * D1 for a, b in zip(zip(*rows1), zip(*rows2))]
    hi = [max(a) * D2 - min(b) * D1 for a, b in zip(zip(*rows1), zip(*rows2))]
    if S._proportional(grams1) and S._proportional(grams2):
        if len(grams1) == len(data1) and len(grams2) == len(data2):
            return [range(-(-x // den), y // den + 1) for x, y in zip(lo, hi)]
        margin = 1
    else:
        t = S._slope_radius(grams1, rows1, D1) + S._slope_radius(grams2, rows2, D2)
        margin = max(1, t)
    return [range(x // den - margin, -(-y // den) + margin + 1) for x, y in zip(lo, hi)]


def ref_split_by_hyperplanes(cones, hyperplanes):
    """Both sides of every cell by every hyperplane; a side of lower
    dimension than its cell is dropped, and so is a repeated side."""
    cells = list(cones)
    for h in hyperplanes:
        new_cells = []
        for c in cells:
            for s in (C.halfspace_slice(c, h, 1), C.halfspace_slice(c, h, -1)):
                if s.dim == c.dim and s not in new_cells:
                    new_cells.append(s)
        cells = new_cells
    return cells


def ref_splitting_hyperplanes(target, pieces):
    """Facet hyperplanes of the pieces of at least the target's dimension
    that cut the target, each once up to sign."""
    hyperplanes = []
    for p in pieces:
        if p.dim < target.dim:
            continue
        for h in p.facet_normals:
            if h in hyperplanes or tuple(-x for x in h) in hyperplanes:
                continue
            signs = [dot(h, r) for r in target.rays]
            if any(s > 0 for s in signs) and any(s < 0 for s in signs):
                hyperplanes.append(h)
    return hyperplanes


def ref_uncovered_point(target, pieces):
    """The target split by the hyperplanes that cut it; the first cell
    whose interior point lies in no piece whose span holds the target's
    span (the rank of the piece's rays with the target's is the piece's
    dimension).  Its point is the first of Σᵢ kⁱ·rᵢ over the cell's rays,
    k = 1, 2, …, that lies in no piece at all."""
    n = target.ambient_rank
    spanning = [
        p
        for p in pieces
        if L.canonicalize(list(p.rays) + list(target.rays), n).rank == p.dim
    ]
    hyperplanes = ref_splitting_hyperplanes(target, pieces)
    for cell in ref_split_by_hyperplanes([target], hyperplanes):
        if any(C.member(p, C.interior_point(cell)) for p in spanning):
            continue
        for k in range(1, len(pieces) * len(cell.rays) + 2):
            pt = tuple(
                sum(k**i * r[j] for i, r in enumerate(cell.rays)) for j in range(n)
            )
            if not any(C.member(p, pt) for p in pieces):
                return pt
        raise AssertionError("every point of an uncovered cell lies in a piece")
    return None


def ref_overlay_mismatch(pieces1, pieces2):
    """`minimal._overlay_mismatch` over every pair of pieces, equal
    lattices included: the first overlay cell where the restricted
    lattices differ, as (cell, lattice_from_1, lattice_from_2), or None."""
    for p1 in pieces1:
        for p2 in pieces2:
            cell = C.intersect_cones(p1.cone, p2.cone)
            if cell.dim == 0:
                continue
            r1 = F._restrict(p1.lattice, cell)
            r2 = F._restrict(p2.lattice, cell)
            if r1 != r2:
                return cell, r1, r2
    return None


def ref_render_points(obj, radius):
    """The dots of `render.render_svg` as (x, y, fill), from a scan of the
    box [-radius, radius]^2: pieces in (dimension, rays) order, x then y,
    each point tested with `cones.member` and `lattice.member`; the first
    piece that holds a point gives its fill."""
    pieces = MIN._pieces_of(obj)
    lattices = sorted({p.lattice for p in pieces}, key=lambda lat: lat.basis)
    fill = {lat: R.PALETTE[i % len(R.PALETTE)] for i, lat in enumerate(lattices)}
    out, drawn = [], set()
    for p in sorted(pieces, key=lambda p: (p.dim, p.cone.rays)):
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                v = (x, y)
                if v not in drawn and C.member(p.cone, v) and L.member(v, p.lattice):
                    out.append((x, y, fill[p.lattice]))
                    drawn.add(v)
    return out


def ref_merge_pieces(pieces):
    """`minimal._merge_pieces` as a restart loop that rebuilds and re-sorts
    the whole piece list after each merge."""
    items = F._sort_stacky(pieces)
    changed = True
    while changed:
        changed = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                merged = F.merge_across_wall(items[i], items[j])
                if merged is not None:
                    rest = [it for k, it in enumerate(items) if k not in (i, j)]
                    items = F._sort_stacky(rest + [merged])
                    changed = True
                    break
            if changed:
                break
    return items


def ref_is_complete_by_ridges(fan):
    """Ridge pairing, right on valid fans only: every maximal cone is a top
    (of dimension n), each ridge of a top (the rays tight on one facet
    normal) bounds exactly two tops, and the tops connect through ridges.
    A cone listed twice is one top."""
    n = fan.ambient_rank
    if n == 0:
        return True
    maxs = {sc.cone.rays: sc.cone for sc in F.maximal_cones(fan)}
    tops = [c for c in maxs.values() if c.dim == n]
    if len(tops) != len(maxs) or not tops:
        return False
    by_ridge = {}
    for i, c in enumerate(tops):
        for k in range(len(c.facet_normals)):
            by_ridge.setdefault(tuple(C.tight_rays(c, 1 << k)), []).append(i)
    return S._ridges_pair(by_ridge.values(), len(tops))
