"""Reference implementations shared by the test suite: the plain
constructions that library decisions are compared against."""

import tropfan.cones as C
import tropfan.lattice as L
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
