"""Tests of the benchmark itself: inputs, checks, tracing and the result line.

Run from the root of the repository::

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ftconsensus import analysis, cli, dynamics, graph, protocols  # noqa: E402,F401
from ftconsensus.config import parse_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _parsed(w):
    return {key: parse_config(json.dumps(doc)) for key, doc in w.configs.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_seeded_and_valid(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7).configs != workloads.build(name, 8).configs
    for seed in range(5):
        for cfg in _parsed(workloads.build(name, seed)).values():
            assert max(cfg.x0) - min(cfg.x0) == pytest.approx(workloads.X0_SPREAD, abs=1e-9)
            for f in cfg.bank():
                if isinstance(f, protocols.PowerLinear):
                    floor = (f.a * f.c * cfg.sim.dt) ** (1.0 / (1.0 - f.c))
                    assert cfg.sim.eps_consensus > 10 * floor


def test_workload_shapes():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for seed in range(5):
        scc = _parsed(workloads.build("scc-200", seed))["scc"]
        assert scc.n == 200 and graph.is_strongly_connected(scc.graph())
        assert len(set(scc.protocol_specs)) == 1

        dag = _parsed(workloads.build("dag-mixed", seed))["dag"]
        cond = graph.condensation(dag.graph())
        assert dag.n == 48 and 6 <= len(cond.components) <= 8
        assert graph.has_spanning_tree(dag.graph()) and len(cond.components[0]) > 1
        assert len(set(dag.protocol_specs)) == 48
        assert dag.bank().uniform_kind is None
        assert dag.sim.eps_consensus == 1e-4 and dag.sim.t_max == 10.0


def test_checks_reject_wrong_outputs():
    doc = workloads.build("fig1-paper", 1).configs["freeze"]
    good = {"spanning_tree": True, "settled_at": 2.9, "final_disagreement": 0.0,
            "consensus_value": 0.5, "overall_bound": 5.0}
    bad_bound = dict(good, overall_bound=1.0)
    bad_value = dict(good, consensus_value=max(doc["x0"]) + 1.0)
    out = Path(__file__).parent
    for cert, wrong in ((good, False), (bad_bound, True), (bad_value, True)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_load_json", lambda path, c=cert: c)
            if wrong:
                with pytest.raises(checks.WrongOutput):
                    checks.check_certify(out, doc, 2.9)
            else:
                checks.check_certify(out, doc, 2.9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_load_json", lambda path: good)
        with pytest.raises(checks.WrongOutput):
            checks.check_certify(out, doc, 3.1)  # simulate saw another settled_at
    with pytest.raises(checks.WrongOutput):
        checks.check_demo_bytes({n: b"a" for n in checks.DEMO_FILES},
                                {n: b"b" for n in checks.DEMO_FILES})


@pytest.mark.xfail(strict=True, reason="known defect: the root stage of analysis.certify passes a "
                   "2-D array to ProtocolBank.eval, whose mixed-kind fallback handles scalars only")
def test_certify_on_mixed_kind_root(tmp_path, capsys):
    # seed 1 draws both protocol kinds in dag-mixed's root block; this is why
    # dag-mixed times no 'certify' op.  Once certify succeeds here, drop the
    # xfail mark and add the op back to the workload (see bench/NOTES.md).
    w = workloads.build("dag-mixed", 1)
    dag = _parsed(w)["dag"]
    root = graph.condensation(dag.graph()).components[0]
    assert len({dag.protocol_specs[i].split("{")[0] for i in root}) == 2
    paths = w.write_configs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["certify", str(paths["dag"]), "--out", str(out)]) == 0, capsys.readouterr().err
    checks.check_certify(out, w.configs["dag"], False)


def _bindings(original):
    return [(name, key) for name, mod in sys.modules.items()
            if mod is not None and name.startswith("ftconsensus")
            for key, value in vars(mod).items() if value is original]


def test_tracer_wraps_every_binding():
    originals = {}
    for metric, module_name, attr, cls_name, _ in tracer.TARGETS:
        owner = sys.modules[module_name]
        owner = getattr(owner, cls_name) if cls_name else owner
        originals[metric] = (owner, attr, getattr(owner, attr))
    # functions imported by name elsewhere must be found too
    assert len(_bindings(originals["graph.laplacian"][2])) >= 4
    t = tracer.Tracer()
    wrapped = t.install()
    try:
        assert sorted(wrapped) == sorted(originals)
        for metric, (owner, attr, original) in originals.items():
            assert getattr(owner, attr) is not original, metric
            assert _bindings(original) == [], metric
    finally:
        t.uninstall()
    for metric, (owner, attr, original) in originals.items():
        assert getattr(owner, attr) is original, metric


def test_traced_outputs_equal_untraced(tmp_path):
    w = workloads.build("fig1-paper", 3)
    runs = {}
    for trace in (0, 1):
        workdir = tmp_path / f"trace{trace}"
        workdir.mkdir()
        w.write_configs(workdir)
        t = tracer.Tracer() if trace else None
        runner = worker.Runner(w, workdir, t)
        if t is not None:
            t.install()
        try:
            runner.run(0.0)  # exactly one pass
        finally:
            if t is not None:
                t.uninstall()
        assert runner.failed == 0 and runner.failures == []
        runs[trace] = (runner, t)
    assert runs[0][0].digests == runs[1][0].digests
    assert set(runs[0][0].digests) == {"simulate", "simulate_nofreeze", "certify", "demo_paper"}
    layers = runs[1][1].layer_metrics(1)
    assert {name for name, _ in tracer.LAYER_METRICS} - set(layers) == {"trace.overhead_frac"}
    assert layers["dynamics.rk4_steps"] * 4 <= layers["protocols.bank_eval.calls"]
    assert layers["protocols.evaluate.calls"] > 10_000
    assert 0.0 < layers["protocols.ratio_min.distinct_share"] < 1.0
    assert layers["cli.bytes_written"] > 0 and layers["graph.condensation.calls"] > 0


def test_benchmark_json_and_metric_map_agree():
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in tracer.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(tracer.LAYER_METRICS)
    mapping = json.loads((BENCH / "metric_map.json").read_text())
    mapped = {m for layer in mapping["layers"] for m in layer["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    gated = {name for name, e in mapping["end_to_end"].items() if e["gated"]}
    assert gated == {m["name"] for m in SPEC["end_to_end"]}
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def _run(cwd: Path, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run(ROOT, "--workload", "fig1-paper", "--seed", "5", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "fig1-paper", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
