"""Experiment configs: a small JSON document schema.

Schema (all fields required unless noted)::

    {
      "graph": {"n": 4, "edges": [[1, 2, 1.0], ...]},
      "protocols": "powerlinear{a=1,b=1,c=0.75}",   // or a list of n specs
      "x0": [2.0, -1.0, 3.0, -2.0],
      "sim": {                                       // optional, defaults below
        "dt": 1e-3, "t_max": 20.0, "eps_consensus": 1e-9,
        "record_stride": 10, "freeze_on_consensus": true
      },
      "certify": false                               // optional
    }

Edges are written information-flow style ``[from, to, weight]`` with
1-based agent ids: the arc carries agent ``from``'s state to agent ``to``.
Internally that sets ``weights[to-1, from-1] = weight``.  Self-loops and
duplicate edges are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SimulationConfig
from .errors import ConfigParseError, ConfigValidationError
from .graph import WeightedDigraph
from .protocols import ProtocolBank, parse_protocol_spec

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "load_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    edges: tuple  # ((from, to, weight), ...), 1-based endpoints
    protocol_specs: tuple  # one spec string per agent
    x0: tuple
    sim: SimulationConfig = SimulationConfig()
    certify: bool = False

    def graph(self) -> WeightedDigraph:
        w = np.zeros((self.n, self.n))
        for src, dst, weight in self.edges:
            w[dst - 1, src - 1] = weight
        return WeightedDigraph(w)

    def bank(self) -> ProtocolBank:
        return ProtocolBank([parse_protocol_spec(s) for s in self.protocol_specs])

    def x0_array(self) -> np.ndarray:
        return np.array(self.x0, dtype=float)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigValidationError(msg)


def parse_config(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"graph", "protocols", "x0", "sim", "certify"}
    _require(not unknown, f"unknown top-level fields: {sorted(unknown)}")
    for key in ("graph", "protocols", "x0"):
        _require(key in doc, f"missing required field {key!r}")

    gdoc = doc["graph"]
    _require(isinstance(gdoc, dict) and set(gdoc) == {"n", "edges"},
             "graph must be an object with fields 'n' and 'edges'")
    n = gdoc["n"]
    _require(isinstance(n, int) and n >= 1, "graph.n must be a positive integer")
    edges = []
    seen = set()
    _require(isinstance(gdoc["edges"], list), "graph.edges must be an array")
    for e in gdoc["edges"]:
        _require(isinstance(e, list) and len(e) == 3, f"edge {e!r} must be [from, to, weight]")
        src, dst, weight = e
        _require(isinstance(src, int) and isinstance(dst, int), f"edge {e!r}: endpoints must be integers")
        _require(1 <= src <= n and 1 <= dst <= n, f"edge {e!r}: endpoints must lie in [1, {n}]")
        _require(src != dst, f"edge {e!r}: self-loops are not allowed (diagonal must stay zero)")
        _require(isinstance(weight, (int, float)) and weight > 0, f"edge {e!r}: weight must be positive")
        _require((src, dst) not in seen, f"duplicate edge ({src}, {dst})")
        seen.add((src, dst))
        edges.append((src, dst, float(weight)))

    pdoc = doc["protocols"]
    if isinstance(pdoc, str):
        specs = (pdoc,) * n
    else:
        _require(isinstance(pdoc, list) and len(pdoc) == n,
                 f"protocols must be one spec string or a list of {n}")
        _require(all(isinstance(s, str) for s in pdoc), "protocol specs must be strings")
        specs = tuple(pdoc)
    for s in specs:
        try:
            parse_protocol_spec(s)
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from exc

    x0 = doc["x0"]
    _require(isinstance(x0, list) and len(x0) == n, f"x0 must be an array of {n} numbers")
    _require(all(isinstance(v, (int, float)) for v in x0), "x0 entries must be numbers")
    _require(all(np.isfinite(v) for v in x0), "x0 entries must be finite")

    sim = SimulationConfig()
    if "sim" in doc:
        sdoc = doc["sim"]
        _require(isinstance(sdoc, dict), "sim must be an object")
        known = {"dt", "t_max", "eps_consensus", "record_stride", "freeze_on_consensus"}
        unknown = set(sdoc) - known
        _require(not unknown, f"unknown sim fields: {sorted(unknown)}")
        try:
            sim = replace(sim, **sdoc)
        except (ValueError, TypeError) as exc:
            raise ConfigValidationError(f"invalid sim settings: {exc}") from exc

    cert = doc.get("certify", False)
    _require(isinstance(cert, bool), "certify must be a boolean")

    return ExperimentConfig(
        n=n, edges=tuple(edges), protocol_specs=specs,
        x0=tuple(float(v) for v in x0), sim=sim, certify=cert)


def serialize_config(cfg: ExperimentConfig) -> str:
    doc = {
        "graph": {"n": cfg.n, "edges": [[s, d, w] for (s, d, w) in cfg.edges]},
        "protocols": list(cfg.protocol_specs),
        "x0": list(cfg.x0),
        "sim": {
            "dt": cfg.sim.dt,
            "t_max": cfg.sim.t_max,
            "eps_consensus": cfg.sim.eps_consensus,
            "record_stride": cfg.sim.record_stride,
            "freeze_on_consensus": cfg.sim.freeze_on_consensus,
        },
        "certify": cfg.certify,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
