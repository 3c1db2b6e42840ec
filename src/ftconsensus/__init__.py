"""Finite-time consensus simulation and certification on weighted digraphs.

Names load on first use (PEP 562), so importing the package, ``cli`` or
``config`` loads no numpy; the first access binds the whole export list.
"""

from importlib import import_module

_EXPORTS = {
    "graph": "Condensation WeightedDigraph condensation has_spanning_tree laplacian left_null_vector "
             "mirror_laplacian".split(),
    "protocols": "CriteriaReport Linear LogPower PowerLinear ProtocolBank antiderivative check_a1 "
                 "check_a2 evaluate parse_protocol_spec".split(),
    "dynamics": "SimulationConfig Trajectory integrate lyapunov_trace lyapunov_value settling_time".split(),
    "analysis": "CertificationReport ConvergenceCertificate c2_constant certify estimate_c1 "
                "settling_bound_rooted".split(),
    "config": "ExperimentConfig load_config parse_config".split(),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in __all__ and name not in (*_EXPORTS, "errors"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _EXPORTS.items():
        module = import_module(f".{module_name}", __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]
