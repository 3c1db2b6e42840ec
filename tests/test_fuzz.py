"""A derandomized, bounded fuzzer of the command line.

``check-protocol`` gets spec parameters, ``--bound``, ``--alpha`` and
``--beta`` across 1e-300..1e300; ``simulate`` and ``certify`` get JSON config
documents with n <= 4 and t_max <= 0.05.  Every case must exit 0 or 1 (never
2, the internal-error code) with at most one line on stderr, and every A1
line ``check-protocol`` prints must read ``pass``: A1 holds for every family
by proof.
"""

import contextlib
import io
import json
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ftconsensus.cli import main

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# magnitudes from 1e-300 to 1e300; exponents c in each family's valid range
magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
signed = magnitudes | magnitudes.map(lambda v: -v) | st.just(0.0)
specs = st.one_of(
    st.builds("linear{{k={!r}}}".format, magnitudes),
    st.builds("powerlinear{{a={!r},b={!r},c={!r}}}".format, magnitudes, magnitudes | st.just(0.0),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    st.builds("logpower{{a={!r},c={!r}}}".format, magnitudes,
              st.floats(0.0, 2.0 / 3.0, exclude_min=True, exclude_max=True)),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a warning would be a second stderr line
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 1), (argv, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    return out.getvalue()


@FUZZ
# a separate "-1e+16" (exponent form) reads as an option to argparse: a usage error, exit 1
@example(spec="linear{k=1.0}", bound=6.0, alpha=None, beta=-1e16)
# the ratio underflows to 0 at the bottom of the grid (found when a log-log slope of the
# ratio judged A2, which took ln 0)
@example(spec="linear{k=3.0243206146338013e-242}", bound=3.1172788346219667e+163,
         alpha=0.1639141061644983, beta=7.550655460825254e-189)
# f^2 at the bottom of the grid overflows a Python float ** (log-power's inner branch
# exceeds f(M) for tiny c)
@example(spec="logpower{a=1.3056691265377758e+153,c=1.175494351e-38}", bound=1.0,
         alpha=None, beta=None)
@given(spec=specs, bound=magnitudes,
       alpha=st.none() | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       beta=st.none() | magnitudes)
def test_check_protocol(spec, bound, alpha, beta):
    flags = ["--bound", repr(bound)]
    flags += [] if alpha is None else ["--alpha", repr(alpha)]
    flags += [] if beta is None else ["--beta", repr(beta)]
    out = run(["check-protocol", "--spec", spec, *flags])
    for line in out.splitlines():
        if line.startswith("A1 "):
            assert line.endswith("pass"), (spec, flags, line)


@st.composite
def config_docs(draw):
    n = draw(st.integers(1, 4))
    arcs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = [[*e, draw(magnitudes)] for e in draw(st.lists(arcs, unique=True, max_size=n * (n - 1)))]
    sim = {"t_max": draw(st.floats(1e-3, 0.05)), "dt": draw(st.sampled_from([1e-3, 1e-4])),
           "eps_consensus": draw(magnitudes), "record_stride": draw(st.integers(1, 10)),
           "freeze_on_consensus": draw(st.booleans())}
    return {
        "graph": {"n": n, "edges": edges},
        "protocols": draw(specs | st.lists(specs, min_size=n, max_size=n)),
        "x0": draw(st.lists(signed, min_size=n, max_size=n)),
        "sim": sim,
    }


def two_agents(edges, protocols, x0, **sim):
    return {"graph": {"n": 2, "edges": edges}, "protocols": protocols, "x0": x0,
            "sim": {"t_max": 0.01, **sim}}


@FUZZ
# V = sum_i omega_i F(y_i) overflows a float
@example(doc=two_agents([[1, 2, 1.0], [2, 1, 1.0]], "linear{k=1.0}", [1e200, 0.0]), command="simulate")
# omega spans more than the float range; the graph is frozen at the start
@example(doc=two_agents([[1, 2, 1e-293], [2, 1, 1e125]], "linear{k=1.0}", [1.0, 1.0]), command="simulate")
# C1 C2 beta (1 - alpha) underflows to 0, so t* divided by zero
@example(doc=two_agents([[2, 1, 0.005383561410678199], [1, 2, 1.0000000000001308e-300]],
                 "logpower{a=0.9999999359376855,c=0.5850020644988746}", [5.012803987435593e+145, 0.0],
                 t_max=0.02940678887172559, eps_consensus=1.1145850725923208e+70,
                 freeze_on_consensus=False), command="certify")
# f(M)^2 and F(M) overflow on the ratio grid
@example(doc=two_agents([[1, 2, 1.0]], "powerlinear{a=1.0,b=1.0,c=0.5}", [1e200, 1e200]), command="certify")
# M = ||L||_inf ||x0||_inf overflows
@example(doc=two_agents([[1, 2, 1e200]], "linear{k=1.0}", [1e200, 1e200]), command="certify")
# the a-posteriori Rayleigh quotient overflows: certify takes the a-priori C1
@example(doc=two_agents([[1, 2, 0.01], [2, 1, 2.2471436111915996e+25]],
                 ["logpower{a=8.991052869724137e+103,c=0.3504084452824105}",
                  "logpower{a=1.0,c=0.6666666666666665}"], [1.0, 0.0],
                 t_max=0.05, dt=0.0001, eps_consensus=6.534977187560602e-131, record_stride=2),
         command="certify")
@given(doc=config_docs(), command=st.sampled_from(["simulate", "certify"]))
def test_config_documents(doc, command, tmp_path):
    path = tmp_path / "fuzz.cfg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run([command, str(path), "--out", str(tmp_path / "out")])
