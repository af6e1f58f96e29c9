"""Reference implementations shared by the test suite: the plain
constructions that library decisions are compared against."""

import tropfan.cones as C
import tropfan.lattice as L
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
