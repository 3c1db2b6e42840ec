"""Experiment configs: a small JSON document schema.

Schema (all fields required unless noted)::

    {
      "graph": {"n": 4, "edges": [[1, 2, 1.0], ...]},
      "protocols": "powerlinear{a=1,b=1,c=0.75}",   // or a list of n specs
      "x0": [2.0, -1.0, 3.0, -2.0],
      "sim": {                                       // optional, defaults below
        "dt": 1e-3, "t_max": 20.0, "eps_consensus": 1e-9,
        "record_stride": 10, "freeze_on_consensus": true
      }
    }

Edges are written information-flow style ``[from, to, weight]`` with
1-based agent ids: the arc carries agent ``from``'s state to agent ``to``.
Internally that sets ``weights[to-1, from-1] = weight``.  Self-loops,
duplicate edges and a key repeated in one object or one spec are rejected,
and so is any number that does not convert to a finite float.  JSON
``true``/``false`` are not numbers, and ``x0`` must hold ``n`` entries
before anything of size ``n`` is built.

The module loads no numpy, so a config validates without it.  It also holds
the records a config names (``SimulationConfig``, the protocol families and
their spec grammar), which ``dynamics`` and ``protocols`` re-export.  They
are frozen ``_record.Record`` values, like every record of the package, so
a cold start imports neither ``dataclasses`` nor ``typing``; ``_record`` has
their ``fields``, ``replace`` and ``asdict``.
"""

from __future__ import annotations

import json
import math
import re
from ._record import Record, fields, replace
from .errors import ConfigParseError, ConfigValidationError


def _number(value) -> bool:
    """True for a JSON number; JSON ``true``/``false`` are bools, not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    """True for a number that converts to a finite float (a huge int does not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_finite(record, names, is_kind=_number, kind="a real number"):
    """Raise ValueError unless each named field of ``record`` is ``kind`` and finite."""
    for name in names:
        value = getattr(record, name)
        if not is_kind(value):
            raise ValueError(f"{name} must be {kind}")
        if not _finite(value):
            raise ValueError(f"{name} must be finite")


class SimulationConfig(Record):
    dt: float = 1e-3
    t_max: float = 20.0
    eps_consensus: float = 1e-9
    record_stride: int = 10
    freeze_on_consensus: bool = True

    def __post_init__(self):
        _check_finite(self, ("dt", "t_max", "eps_consensus"))
        _check_finite(self, ("record_stride",), _integer, "a positive integer")
        if not isinstance(self.freeze_on_consensus, bool):
            raise ValueError("freeze_on_consensus must be a boolean")
        if not self.dt > 0 or not self.t_max > 0 or self.dt > self.t_max:
            raise ValueError("need 0 < dt <= t_max")
        if not self.eps_consensus > 0:
            raise ValueError("eps_consensus must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be a positive integer")


# protocol families, with finite real parameters; their f and F live in ``protocols``
class Linear(Record):
    k: float

    def __post_init__(self):
        _check_finite(self, ("k",))
        if not self.k > 0:
            raise ValueError("linear gain k must be positive")


class PowerLinear(Record):
    a: float
    b: float
    c: float

    def __post_init__(self):
        _check_finite(self, ("a", "b", "c"))
        if not self.a > 0:
            raise ValueError("power-linear a must be positive")
        if self.b < 0:
            raise ValueError("power-linear b must be nonnegative")
        if not 0 < self.c < 1:
            raise ValueError("power-linear c must lie in (0, 1)")


class LogPower(Record):
    a: float
    c: float

    def __post_init__(self):
        _check_finite(self, ("a", "c"))
        if not self.a > 0:
            raise ValueError("log-power a must be positive")
        if not 0 < self.c < 2.0 / 3.0:
            raise ValueError("log-power c must lie in (0, 2/3)")


ProtocolFunction = Linear | PowerLinear | LogPower


# spec-string grammar: kind{key=value, ...}, the keys being the family's fields
_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*\{([^}]*)\}\s*$")

_KINDS = {"linear": Linear, "powerlinear": PowerLinear, "logpower": LogPower}


def parse_protocol_spec(spec: str) -> ProtocolFunction:
    """Parse e.g. ``powerlinear{a=1, b=1, c=0.75}`` into a protocol value."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"malformed protocol spec: {spec!r}")
    kind, body = m.group(1), m.group(2)
    if kind not in _KINDS:
        raise ValueError(f"unknown protocol kind: {kind!r}")
    params = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed parameter {part!r} in spec {spec!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        if key in params:
            raise ValueError(f"repeated key {key!r} in spec {spec!r}")
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise ValueError(f"non-numeric value for {key!r} in spec {spec!r}") from exc
        if not math.isfinite(params[key]):
            raise ValueError(f"non-finite value for {key!r} in spec {spec!r}")
    expected = fields(_KINDS[kind])
    if set(params) != set(expected):
        raise ValueError(f"spec {spec!r} must define exactly the keys {expected}")
    return _KINDS[kind](**params)


class ExperimentConfig(Record):
    n: int
    edges: tuple  # ((from, to, weight), ...), 1-based endpoints
    protocol_specs: tuple  # one spec string per agent
    x0: tuple
    sim: SimulationConfig = SimulationConfig()

    def graph(self) -> WeightedDigraph:
        import numpy as np

        from .graph import WeightedDigraph

        w = np.zeros((self.n, self.n))
        for src, dst, weight in self.edges:
            w[dst - 1, src - 1] = weight
        return WeightedDigraph(w)

    def bank(self) -> ProtocolBank:
        from .protocols import ProtocolBank

        parsed = {s: parse_protocol_spec(s) for s in dict.fromkeys(self.protocol_specs)}
        return ProtocolBank([parsed[s] for s in self.protocol_specs])

    def x0_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.x0, dtype=float)


def _require(cond: bool, msg: str, *args):
    """Raise ``msg``, or ``msg.format(*args)``: a message is built only on failure."""
    if not cond:
        raise ConfigValidationError(msg.format(*args) if args else msg)


def _object(pairs) -> dict:
    """A JSON object; ``json.loads`` alone would keep a repeated key's last value."""
    doc = {}
    for key, value in pairs:
        _require(key not in doc, "repeated field {!r}", key)
        doc[key] = value
    return doc


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"graph", "protocols", "x0", "sim"}
    _require(not unknown, f"unknown top-level fields: {sorted(unknown)}")
    for key in ("graph", "protocols", "x0"):
        _require(key in doc, f"missing required field {key!r}")

    gdoc = doc["graph"]
    _require(isinstance(gdoc, dict) and set(gdoc) == {"n", "edges"},
             "graph must be an object with fields 'n' and 'edges'")
    n = gdoc["n"]
    _require(_integer(n) and n >= 1, "graph.n must be a positive integer")
    edges = []
    seen = set()
    _require(isinstance(gdoc["edges"], list), "graph.edges must be an array")
    for e in gdoc["edges"]:
        _require(isinstance(e, list) and len(e) == 3, "edge {!r} must be [from, to, weight]", e)
        src, dst, weight = e
        _require(_integer(src) and _integer(dst), "edge {!r}: endpoints must be integers", e)
        _require(1 <= src <= n and 1 <= dst <= n, "edge {!r}: endpoints must lie in [1, {}]", e, n)
        _require(src != dst, "edge {!r}: self-loops are not allowed (diagonal must stay zero)", e)
        _require(_number(weight) and weight > 0, "edge {!r}: weight must be a positive number", e)
        _require(_finite(weight), "edge {!r}: weight must be finite", e)
        _require((src, dst) not in seen, "duplicate edge ({}, {})", src, dst)
        seen.add((src, dst))
        edges.append((src, dst, float(weight)))

    # x0's length bounds n before anything of size n is built
    x0 = doc["x0"]
    _require(isinstance(x0, list) and len(x0) == n, f"x0 must be an array of {n} numbers")
    _require(all(_number(v) for v in x0), "x0 entries must be numbers")
    _require(all(_finite(v) for v in x0), "x0 entries must be finite")

    pdoc = doc["protocols"]
    if isinstance(pdoc, str):
        specs = (pdoc,) * n
    else:
        _require(isinstance(pdoc, list) and len(pdoc) == n,
                 f"protocols must be one spec string or a list of {n}")
        _require(all(isinstance(s, str) for s in pdoc), "protocol specs must be strings")
        specs = tuple(pdoc)
    for s in dict.fromkeys(specs):
        try:
            parse_protocol_spec(s)
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc

    sim = SimulationConfig()
    if "sim" in doc:
        sdoc = doc["sim"]
        _require(isinstance(sdoc, dict), "sim must be an object")
        unknown = set(sdoc).difference(fields(SimulationConfig))
        _require(not unknown, f"unknown sim fields: {sorted(unknown)}")
        try:
            sim = replace(sim, **sdoc)
        except (ValueError, TypeError) as exc:
            raise ConfigValidationError(f"invalid sim settings: {exc}") from exc

    return ExperimentConfig(
        n=n, edges=tuple(edges), protocol_specs=specs,
        x0=tuple(float(v) for v in x0), sim=sim)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
