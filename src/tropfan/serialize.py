"""JSON documents for fans, colorings, bases, and graphs.

All integers are serialized as decimal strings so that arbitrary
precision survives round trips.  A document looks like

    {"schema_version": "1", "kind": "stacky_fan", "payload": {...}}

with kind one of stacky_fan, coloring, polarized_base, av_fan, graph.
"""

import json

from . import cones as C
from . import fans as F
from . import lattice as L
from . import minimal as MIN
from . import semiabelian as S

SCHEMA_VERSION = "1"

KINDS = ("stacky_fan", "coloring", "polarized_base", "av_fan", "graph")


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


def _dec_vec(v):
    return tuple(_dec_int(x) for x in v)


def _dec_mat(rows):
    return [list(_dec_vec(r)) for r in rows]


def _enc_stacky_cone(sc):
    return {"rays": _enc_mat(sc.cone.rays), "lattice": _enc_mat(sc.lattice.basis)}


def _dec_stacky_cone(obj, ambient_rank):
    rays = _dec_mat(obj["rays"])
    lat = _dec_mat(obj["lattice"])
    cone = C.from_rays(rays, ambient_rank) if rays else C.zero_cone(ambient_rank)
    return F.StackyCone(cone, L.canonicalize(lat, ambient_rank))


def _enc_fan(fan):
    return {
        "ambient_rank": str(fan.ambient_rank),
        "cones": [_enc_stacky_cone(sc) for sc in fan.cones],
    }


def _dec_fan(payload):
    n = _dec_int(payload["ambient_rank"])
    cones = [_dec_stacky_cone(o, n) for o in payload["cones"]]
    return F.make_fan(cones, n)


def _enc_coloring_from_minimal(m):
    colors = [
        {"lattice": _enc_mat(lat.basis), "cones": [_enc_mat(c.rays) for c in cs]}
        for lat, cs in MIN.coloring_of(m.pieces, m.ambient_rank).colors
    ]
    return {"ambient_rank": str(m.ambient_rank), "colors": colors}


def _dec_minimal(payload):
    n = _dec_int(payload["ambient_rank"])
    pieces = []
    for color in payload["colors"]:
        lat = L.canonicalize(_dec_mat(color["lattice"]), n)
        for rays in color["cones"]:
            cone = C.from_rays(_dec_mat(rays), n) if rays else C.zero_cone(n)
            pieces.append(F.StackyCone(cone, F._restrict(lat, cone)))
    return MIN.MinimalFan(n, tuple(sorted(pieces, key=lambda p: (p.dim, p.cone.rays))))


def _enc_base(base):
    return {
        "base_rank": str(base.base_rank),
        "base_cone": _enc_stacky_cone(base.base_cone),
        "m_rank": str(base.m_rank),
        "q_matrix": [[_enc_vec(v) for v in row] for row in base.q_matrix],
        "torus_rank": str(base.torus_rank),
    }


def _dec_base(payload):
    b = _dec_int(payload["base_rank"])
    base_cone = _dec_stacky_cone(payload["base_cone"], b)
    g = _dec_int(payload["m_rank"])
    q = tuple(
        tuple(_dec_vec(v) for v in row) for row in payload["q_matrix"]
    )
    return S.PolarizedBase(base_cone, g, q, _dec_int(payload["torus_rank"]))


def _enc_av_fan(fan):
    return {
        "base": _enc_base(fan.base),
        "representatives": [_enc_stacky_cone(sc) for sc in fan.representatives],
    }


def _dec_av_fan(payload):
    base = _dec_base(payload["base"])
    n = base.ambient_rank
    reps = [_dec_stacky_cone(o, n) for o in payload["representatives"]]
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
    b = _dec_int(payload["base_rank"])
    base_cone = _dec_stacky_cone(payload["base_cone"], b)
    edges = [
        (_dec_int(u), _dec_int(v), _dec_vec(length))
        for u, v, length in payload["edges"]
    ]
    num_vertices = _dec_int(payload["num_vertices"])
    torus_rank = _dec_int(payload["torus_rank"])
    for u, v, _ in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ParseError(f"edge ({u}, {v}) has an endpoint outside 0..{num_vertices - 1}")
    return num_vertices, edges, base_cone, torus_rank


def to_document(obj):
    """Wrap a supported object in a (kind, payload) document dict."""
    if isinstance(obj, F.StackyFan):
        return {"schema_version": SCHEMA_VERSION, "kind": "stacky_fan", "payload": _enc_fan(obj)}
    if isinstance(obj, MIN.MinimalFan):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "coloring",
            "payload": _enc_coloring_from_minimal(obj),
        }
    if isinstance(obj, S.PolarizedBase):
        return {"schema_version": SCHEMA_VERSION, "kind": "polarized_base", "payload": _enc_base(obj)}
    if isinstance(obj, S.AVStackyFan):
        return {"schema_version": SCHEMA_VERSION, "kind": "av_fan", "payload": _enc_av_fan(obj)}
    if isinstance(obj, tuple) and len(obj) == 4:
        return {"schema_version": SCHEMA_VERSION, "kind": "graph", "payload": _enc_graph(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_document(doc):
    """(kind, object) from a parsed document dict."""
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("missing payload object")
    try:
        if kind == "stacky_fan":
            return kind, _dec_fan(payload)
        if kind == "coloring":
            return kind, _dec_minimal(payload)
        if kind == "polarized_base":
            return kind, _dec_base(payload)
        if kind == "av_fan":
            return kind, _dec_av_fan(payload)
        return kind, _dec_graph(payload)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers the library's own input checks, such as
        # PointednessError and DimensionError.
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
