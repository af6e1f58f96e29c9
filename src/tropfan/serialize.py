"""JSON documents for fans, colorings, bases, and graphs.

All integers are serialized as decimal strings so that arbitrary
precision survives round trips.  A document looks like

    {"schema_version": "1", "kind": "stacky_fan", "payload": {...}}

with kind one of stacky_fan, coloring, polarized_base, av_fan, graph.
A quotient complex is written as kind quotient_complex, which is output
only: `from_document` refuses it as an unknown kind.  One table,
`CODECS`, maps each kind to its type, encoder and decoder; `to_document`,
`from_document` and `KINDS` (the kinds that can be read) all read it.
"""

import json

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from . import semiabelian as S

SCHEMA_VERSION = "1"


class ParseError(ValueError):
    """Raised on malformed documents; message includes position info."""


def _enc_vec(v):
    return [str(int(x)) for x in v]


def _enc_mat(rows):
    return [_enc_vec(r) for r in rows]


def _dec_int(s):
    try:
        return int(s)
    except (TypeError, ValueError):
        raise ParseError(f"expected a decimal integer string, got {s!r}")


def _dec_count(s):
    """A rank or a vertex count: a decimal integer string, at least 0."""
    n = _dec_int(s)
    if n < 0:
        raise ValueError(f"expected a nonnegative count, got {n}")
    return n


def _dec_vec(v):
    return tuple(_dec_int(x) for x in v)


def _dec_mat(rows):
    return [list(_dec_vec(r)) for r in rows]


def _enc_stacky_cone(sc):
    return {"rays": _enc_mat(sc.cone.rays), "lattice": _enc_mat(sc.lattice.basis)}


def _enc_fan(fan):
    return {
        "ambient_rank": str(fan.ambient_rank),
        "cones": [_enc_stacky_cone(sc) for sc in fan.cones],
    }


def _dec_fan(payload):
    n = _dec_count(payload["ambient_rank"])
    return F.make_fan(_dec_cones(payload["cones"], n), n)


def _dec_cones(objs, n):
    """The StackyCones of a list of encoded cones in ambient rank n, each
    built from its own rays and lattice, in document order, so the first
    fault in document order is the one raised."""
    out = []
    for obj in objs:
        rays, lat = _dec_mat(obj["rays"]), _dec_mat(obj["lattice"])
        out.append(F.StackyCone(C.from_rays(rays, n), L.canonicalize(lat, n)))
    return out


def _enc_coloring_from_minimal(m):
    colors = [
        {"lattice": _enc_mat(lat.basis), "cones": [_enc_mat(c.rays) for c in cs]}
        for lat, cs in MIN.coloring_of(m.pieces, m.ambient_rank).colors
    ]
    return {"ambient_rank": str(m.ambient_rank), "colors": colors}


def _dec_minimal(payload):
    n = _dec_count(payload["ambient_rank"])
    colors = [
        (
            L.canonicalize(_dec_mat(color["lattice"]), n),
            [C.from_rays(_dec_mat(rays), n) for rays in color["cones"]],
        )
        for color in payload["colors"]
    ]
    return MIN.MinimalFan(n, F._sort_stacky(MIN._color_pieces(colors)))


def _enc_base(base):
    return {
        "base_rank": str(base.base_rank),
        "base_cone": _enc_stacky_cone(base.base_cone),
        "m_rank": str(base.m_rank),
        "q_matrix": [[_enc_vec(v) for v in row] for row in base.q_matrix],
        "torus_rank": str(base.torus_rank),
    }


def _dec_base(payload):
    b = _dec_count(payload["base_rank"])
    base_cone = _dec_cones([payload["base_cone"]], b)[0]
    g = _dec_count(payload["m_rank"])
    q = tuple(
        tuple(_dec_vec(v) for v in row) for row in payload["q_matrix"]
    )
    return S.PolarizedBase(base_cone, g, q, _dec_count(payload["torus_rank"]))


def _enc_av_fan(fan):
    return {
        "base": _enc_base(fan.base),
        "representatives": [_enc_stacky_cone(sc) for sc in fan.representatives],
    }


def _dec_av_fan(payload):
    base = _dec_base(payload["base"])
    n = base.ambient_rank
    reps = _dec_cones(payload["representatives"], n)
    return S.av_fan(base, reps)


def _enc_graph(graph):
    num_vertices, edges, base_cone, torus_rank = graph
    return {
        "num_vertices": str(num_vertices),
        "edges": [[str(u), str(v), _enc_vec(length)] for u, v, length in edges],
        "base_rank": str(base_cone.ambient_rank),
        "base_cone": _enc_stacky_cone(base_cone),
        "torus_rank": str(torus_rank),
    }


def _dec_graph(payload):
    b = _dec_count(payload["base_rank"])
    base_cone = _dec_cones([payload["base_cone"]], b)[0]
    edges = [
        (_dec_int(u), _dec_int(v), _dec_vec(length))
        for u, v, length in payload["edges"]
    ]
    num_vertices = _dec_count(payload["num_vertices"])
    torus_rank = _dec_count(payload["torus_rank"])
    for u, v, length in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ParseError(f"edge ({u}, {v}) has an endpoint outside 0..{num_vertices - 1}")
        if len(length) != b:
            raise ParseError(f"edge ({u}, {v}) has a length of {len(length)} entries, not {b}")
    return num_vertices, edges, base_cone, torus_rank


def _enc_quotient(qc):
    return {
        "cells": [_enc_stacky_cone(c) for c in qc.cells],
        "face_maps": [
            {"source": str(i), "target": str(j), "m": _enc_vec(m)}
            for i, j, m in qc.face_maps
        ],
    }


# One row per document kind: (kind, type, encoder, decoder).  A graph is
# a plain 4-tuple, so its row comes last; quotient_complex has no decoder.
CODECS = (
    ("stacky_fan", F.StackyFan, _enc_fan, _dec_fan),
    ("coloring", MIN.MinimalFan, _enc_coloring_from_minimal, _dec_minimal),
    ("polarized_base", S.PolarizedBase, _enc_base, _dec_base),
    ("av_fan", S.AVStackyFan, _enc_av_fan, _dec_av_fan),
    ("quotient_complex", S.QuotientComplex, _enc_quotient, None),
    ("graph", tuple, _enc_graph, _dec_graph),
)
_DECODERS = {kind: dec for kind, _, _, dec in CODECS if dec is not None}
KINDS = tuple(_DECODERS)


def to_document(obj):
    """Wrap a supported object in a (kind, payload) document dict."""
    for kind, typ, enc, _ in CODECS:
        if isinstance(obj, typ) and (typ is not tuple or len(obj) == 4):
            return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": enc(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_document(doc):
    """(kind, object) from a parsed document dict."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    kind = doc.get("kind")
    if kind not in _DECODERS:
        raise ParseError(f"unknown document kind {kind!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("missing payload object")
    try:
        return kind, _DECODERS[kind](payload)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers the library's own input checks, such as
        # PointednessError and DimensionError (a q_matrix of the wrong
        # shape among them), and the decoders' own checks.
        raise ParseError(f"malformed {kind} payload: {exc}")


def dumps(obj):
    return json.dumps(to_document(obj), indent=2, sort_keys=True) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return from_document(doc)


def load_path(path):
    with open(path) as fh:
        return loads(fh.read())
