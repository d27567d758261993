"""JSON serialization for sets and system scenarios.

One document per file.  Set documents carry a kind tag plus the
numeric payload; scenario documents bundle a controlled system with
its target data.  Floats round-trip losslessly (json emits shortest
round-trip decimals).
"""

import json

import numpy as np

from .reach import LinearSystem
from .sets import ConstrainedZonotope, HPolytope, Zonotope

SCHEMA_VERSION = 1
SET_KINDS = ("zonotope", "conzono", "hpolytope", "point")


class SchemaError(ValueError):
    """Document violates the schema; message names the offending field."""


def _field(doc, name, kind=None):
    if name not in doc:
        where = f" in {kind} document" if kind else ""
        raise SchemaError(f"missing field '{name}'{where}")
    return doc[name]


def _array(doc, name, ndim, kind=None):
    try:
        arr = np.array(_field(doc, name, kind), dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"field '{name}' is not a rectangular numeric array")
    if arr.ndim != ndim:
        # accept [] for an empty matrix
        if ndim == 2 and arr.size == 0:
            arr = arr.reshape(0, 0)
        else:
            raise SchemaError(f"field '{name}' must have {ndim} dimension(s)")
    if not np.isfinite(arr).all():
        raise SchemaError(f"field '{name}' contains non-finite values")
    return arr


def set_to_document(obj, name=None):
    """Build the JSON-ready document for a set (or a bare point)."""
    doc = {"schema": SCHEMA_VERSION}
    if name:
        doc["name"] = str(name)
    if isinstance(obj, HPolytope):
        doc.update(kind="hpolytope", H=obj.H.tolist(), f=obj.f.tolist())
    elif isinstance(obj, ConstrainedZonotope):
        if obj.n_c == 0 and isinstance(obj, Zonotope):
            doc.update(kind="zonotope", c=obj.c.tolist(), G=obj.G.tolist())
        else:
            doc.update(kind="conzono", c=obj.c.tolist(), G=obj.G.tolist(),
                       A=obj.A.tolist(), b=obj.b.tolist())
    else:
        point = np.asarray(obj, dtype=float).reshape(-1)
        doc.update(kind="point", c=point.tolist())
    return doc


def document_to_set(doc):
    """Materialize a set document; raises SchemaError on violations."""
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    kind = _field(doc, "kind")
    if kind not in SET_KINDS:
        raise SchemaError(f"field 'kind' must be one of {SET_KINDS}, "
                          f"got {kind!r}")
    try:
        if kind == "point":
            return _array(doc, "c", 1, kind)
        if kind == "hpolytope":
            return HPolytope(_array(doc, "H", 2, kind),
                             _array(doc, "f", 1, kind))
        c = _array(doc, "c", 1, kind)
        G = _array(doc, "G", 2, kind)
        if G.size == 0:
            G = G.reshape(len(c), 0)
        if kind == "zonotope":
            return Zonotope(c, G)
        A = _array(doc, "A", 2, kind)
        b = _array(doc, "b", 1, kind)
        if A.size == 0:
            A = A.reshape(0, G.shape[1])
        return ConstrainedZonotope(c, G, A, b)
    except ValueError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"inconsistent {kind} payload: {exc}")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _dump_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_set(path):
    """Read a set document from a JSON file."""
    return document_to_set(_load_json(path))


def write_set(path, obj, name=None):
    """Write a set (or point) as a JSON document."""
    _dump_json(path, set_to_document(obj, name))


class ScenarioDocument:
    """A controlled system plus target data for wayset computation."""

    def __init__(self, system, x_star, N, x_star_minus=None, name=None):
        self.system = system
        self.x_star = np.asarray(x_star, dtype=float).reshape(-1)
        self.N = int(N)
        self.x_star_minus = None if x_star_minus is None else \
            np.asarray(x_star_minus, dtype=float).reshape(-1)
        self.name = name


def scenario_to_document(scenario):
    sys = scenario.system
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "scenario",
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "X": {"H": sys.X.H.tolist(), "f": sys.X.f.tolist()},
        "U": {"c": sys.U.c.tolist(), "G": sys.U.G.tolist()},
        "x_star": scenario.x_star.tolist(),
        "N": scenario.N,
    }
    if scenario.x_star_minus is not None:
        doc["x_star_minus"] = scenario.x_star_minus.tolist()
    if scenario.name:
        doc["name"] = str(scenario.name)
    return doc


def document_to_scenario(doc):
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("kind") != "scenario":
        raise SchemaError("field 'kind' must be 'scenario'")
    A = _array(doc, "A", 2, "scenario")
    B = _array(doc, "B", 2, "scenario")
    X_doc = _field(doc, "X", "scenario")
    U_doc = _field(doc, "U", "scenario")
    if not isinstance(X_doc, dict) or not isinstance(U_doc, dict):
        raise SchemaError("fields 'X' and 'U' must be objects")
    X = HPolytope(_array(X_doc, "H", 2, "X"), _array(X_doc, "f", 1, "X"))
    U = Zonotope(_array(U_doc, "c", 1, "U"), _array(U_doc, "G", 2, "U"))
    x_star = _array(doc, "x_star", 1, "scenario")
    N = _field(doc, "N", "scenario")
    if isinstance(N, bool) or not isinstance(N, int) or N < 1:  # bool subclasses int
        raise SchemaError("field 'N' must be a positive integer")
    x_star_minus = None
    if "x_star_minus" in doc:
        x_star_minus = _array(doc, "x_star_minus", 1, "scenario")
    system = LinearSystem(A, B, X, U)  # dimension errors propagate
    for name, x in (("x_star", x_star), ("x_star_minus", x_star_minus)):
        if x is not None and x.size != system.n:
            raise SchemaError(f"field '{name}' must have {system.n} entries")
    return ScenarioDocument(system, x_star, N, x_star_minus,
                            name=doc.get("name"))


def read_scenario(path):
    """Read a scenario document from a JSON file."""
    return document_to_scenario(_load_json(path))


def write_scenario(path, scenario):
    """Write a ScenarioDocument as a JSON file."""
    _dump_json(path, scenario_to_document(scenario))
