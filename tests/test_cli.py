import ast
import contextlib
import functools
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ftconsensus
from ftconsensus import analysis, cli, protocols
from ftconsensus._record import asdict, fields, replace
from ftconsensus.cli import main
from ftconsensus.config import ExperimentConfig, Linear, LogPower, PowerLinear, load_config, parse_config
from ftconsensus.dynamics import SimulationConfig, Trajectory
from ftconsensus.errors import ConfigParseError, ConfigValidationError
from ftconsensus.graph import WeightedDigraph

from conftest import count_graph_searches, parsed, random_strongly_connected, serialize_config, traced_peak

REPO = Path(__file__).resolve().parent.parent
FIG1_CFG = REPO / "configs" / "fig1.cfg"


def make_doc(**over):
    doc = {
        "graph": {"n": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
        "protocols": "powerlinear{a=1,b=1,c=0.75}",
        "x0": [1.0, 0.0, -1.0],
    }
    doc.update(over)
    return doc


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config(json.dumps(make_doc()))
        assert cfg.n == 3
        assert cfg.sim == SimulationConfig()
        assert cfg.protocol_specs == ("powerlinear{a=1,b=1,c=0.75}",) * 3

    def test_records_are_frozen_values(self):
        # the config records act as frozen dataclasses: equal and hashed by value,
        # immutable, and every construction, replace included, runs their checks
        sim = SimulationConfig(dt=1e-4)
        assert sim == replace(SimulationConfig(), dt=1e-4) and hash(sim) == hash(SimulationConfig(dt=1e-4))
        assert sim != SimulationConfig() and Linear(1.0) != LogPower(1.0, 0.5)
        assert repr(PowerLinear(1.0, 1.0, 0.5)) == "PowerLinear(a=1.0, b=1.0, c=0.5)"
        assert fields(PowerLinear) == ("a", "b", "c") and asdict(Linear(2.0)) == {"k": 2.0}
        with pytest.raises(AttributeError):
            sim.dt = 1.0
        with pytest.raises(AttributeError):
            del sim.dt
        with pytest.raises(ValueError, match="need 0 < dt"):
            replace(sim, dt=-1.0)
        for args, kwargs in (((1.0, 2.0), {}), ((), {"k": 1.0, "j": 2.0}), ((1.0,), {"k": 1.0}), ((), {})):
            with pytest.raises(TypeError):
                Linear(*args, **kwargs)
        # so are the results: a trajectory, a stage certificate and a report
        traj, _ = _hand_built(True)
        cert = analysis.ConvergenceCertificate(0, 0.5, 1.0, "grid-bound", 1.0, "singleton-root",
                                               1.0, 0.0, 0.0)
        report = analysis.CertificationReport(True, ((0,),), (), [cert], [0.0], [0.0], notes=[])
        assert replace(cert, t_star=1.0) != cert == replace(cert) and hash(cert) == hash(replace(cert))
        for record, name in ((traj, "settled_at"), (traj, "lyapunov"), (cert, "t_star"),
                             (report, "overall_bound"), (report, "notes")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_records_with_arrays_compare_by_identity(self):
        # an array has no one truth value: a graph or a trajectory equals only
        # itself and hashes by identity, so == gives a bool and both go in a set
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        traj, _ = _hand_built(True)
        for a, b in ((WeightedDigraph(w), WeightedDigraph(w.copy())), (traj, replace(traj))):
            assert (a == b, a != b, a == a) == (False, True, True)
            assert len({a, b, a}) == 2

    def test_parse_error_reports_location(self):
        with pytest.raises(ConfigParseError, match=r"line \d+, column \d+"):
            parse_config('{"graph": }')

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d["graph"]["edges"].append([1, 1, 1.0]), "self-loop"),
        (lambda d: d["graph"]["edges"].append([1, 2, 2.0]), "duplicate"),
        (lambda d: d["graph"]["edges"].append([1, 5, 1.0]), "lie in"),
        (lambda d: d["graph"]["edges"].append([1, 3, -1.0]), "positive"),
        (lambda d: d.update(x0=[1.0, 0.0]), "array of 3"),
        (lambda d: d.update(protocols="powerlinear{a=0,b=1,c=0.75}"), "a"),
        (lambda d: d.update(sim={"dt": -1.0}), "sim"),
        (lambda d: d.update(sim={"record_stride": 2.5}), "record_stride"),
        (lambda d: d.update(sim={"record_stride": True}), "record_stride"),
        (lambda d: d.update(sim={"freeze_on_consensus": "no"}), "freeze_on_consensus"),
        (lambda d: d.update(sim={"freeze_on_consensus": 0}), "freeze_on_consensus"),
        (lambda d: d.update(sim={"dt": True}), "dt"),
        (lambda d: d.update(sim={"t_max": "20"}), "t_max"),
        (lambda d: d.update(sim={"eps_consensus": None}), "eps_consensus"),
        (lambda d: d.update(bogus=1), "unknown"),
        (lambda d: d.update(certify=False), r"unknown top-level fields: \['certify'\]"),
        (lambda d: d.update(sim={"dt": 1e-3, "bogus": 1}), r"^unknown sim fields: \['bogus'\]$"),
        # numbers that overflow a float or are not finite (json writes inf as Infinity)
        (lambda d: d.update(x0=[10**400, 0.0, -1.0]), "x0 entries must be finite"),
        (lambda d: d.update(x0=[math.nan, 0.0, -1.0]), "x0 entries must be finite"),
        (lambda d: d["graph"]["edges"].append([1, 3, 10**400]), r"edge \[1, 3, 1000+\]: weight must be finite"),
        (lambda d: d["graph"]["edges"].append([1, 3, math.inf]), r"edge \[1, 3, inf\]: weight must be finite"),
        (lambda d: d.update(sim={"t_max": 10**400}), "t_max must be finite"),
        (lambda d: d.update(sim={"t_max": math.inf}), "sim settings: t_max must be finite"),
        (lambda d: d.update(sim={"dt": 10**400}), "dt must be finite"),
        (lambda d: d.update(sim={"eps_consensus": math.inf}), "eps_consensus must be finite"),
        (lambda d: d.update(sim={"record_stride": 10**400}), "record_stride must be finite"),
        (lambda d: d.update(protocols="powerlinear{a=1,b=nan,c=0.5}"), r"non-finite value for 'b' in spec"),
        (lambda d: d.update(protocols="linear{k=inf}"), r"non-finite value for 'k' in spec 'linear\{k=inf\}'"),
        (lambda d: d.update(protocols="logpower{a=1e309,c=0.5}"), r"non-finite value for 'a' in spec"),
        (lambda d: d.update(protocols="powerlinear{a=1,a=2,b=1,c=0.5}"), r"repeated key 'a' in spec"),
        # a key repeated in one object (a mutation that returns text gives the document)
        (lambda d: json.dumps(d)[:-1] + ', "x0": [1.0, 0.0, -1.0]}', r"^repeated field 'x0'$"),
        (lambda d: json.dumps(d)[:-1] + ', "sim": {"dt": 1e-3, "dt": 1e-4}}', r"^repeated field 'dt'$"),
        (lambda d: json.dumps(d).replace('"n": 3', '"n": 3, "n": 3'), r"^repeated field 'n'$"),
    ])
    def test_validation_errors(self, mutate, fragment):
        doc = make_doc()
        text = mutate(doc)
        with pytest.raises(ConfigValidationError, match=fragment):
            parse_config(text if isinstance(text, str) else json.dumps(doc))

    @pytest.mark.parametrize("doc,fragment", [
        ({"graph": {"n": True, "edges": []}, "protocols": "linear{k=1}", "x0": [True]},
         "graph.n must be a positive integer"),
        ({"graph": {"n": 1, "edges": []}, "protocols": "linear{k=1}", "x0": [True]},
         "x0 entries must be numbers"),
        (make_doc(graph={"n": 3, "edges": [[1, 2, True]]}), r"edge \[1, 2, True\]: weight must be a positive number"),
        (make_doc(graph={"n": 3, "edges": [[True, 2, 1.0]]}), "endpoints must be integers"),
        (make_doc(graph={"n": 3, "edges": [[1, False, 1.0]]}), "endpoints must be integers"),
    ])
    def test_json_booleans_are_not_numbers(self, doc, fragment):
        with pytest.raises(ConfigValidationError, match=fragment):
            parse_config(json.dumps(doc))

    def test_round_trip_random(self):
        rng = np.random.default_rng(41)
        kinds = [
            lambda: f"linear{{k={rng.uniform(0.5, 3):.6g}}}",
            lambda: f"powerlinear{{a={rng.uniform(0.5, 2):.6g},b={rng.uniform(0, 2):.6g},c={rng.uniform(0.1, 0.9):.6g}}}",
            lambda: f"logpower{{a={rng.uniform(0.5, 2):.6g},c={rng.uniform(0.1, 0.6):.6g}}}",
        ]
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            rng.shuffle(pairs)
            m = int(rng.integers(1, len(pairs) + 1))
            edges = tuple((s, d, round(float(rng.uniform(0.1, 2.0)), 6)) for s, d in pairs[:m])
            cfg = ExperimentConfig(
                n=n,
                edges=edges,
                protocol_specs=tuple(kinds[int(rng.integers(0, 3))]() for _ in range(n)),
                x0=tuple(round(float(v), 6) for v in rng.uniform(-3, 3, n)),
                sim=SimulationConfig(dt=1e-3, t_max=float(rng.integers(1, 20)),
                                     record_stride=int(rng.integers(1, 20))),
            )
            assert parse_config(serialize_config(cfg)) == cfg

    def test_shipped_fixture_loads(self):
        cfg = load_config(FIG1_CFG)
        assert cfg.n == 4
        assert cfg.graph().n == 4
        assert cfg.x0 == (2.0, -1.0, 3.0, -2.0)


class TestSimulateCommand:
    def test_fig1(self, tmp_path, capsys):
        rc = main(["simulate", str(FIG1_CFG), "--out", str(tmp_path)])
        assert rc == 0
        csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == "t,x_1,x_2,x_3,x_4,disagreement"  # not strongly connected: no V
        last = [float(v) for v in csv_lines[-1].split(",")]
        assert last[0] == 20.0
        assert last[5] <= 1e-9
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["settled_at"] is not None and summary["settled_at"] < 20.0
        assert summary["final_disagreement"] <= 1e-9
        assert "settled_at" in capsys.readouterr().out

    def test_lyapunov_column_when_strongly_connected(self, tmp_path):
        (tmp_path / "c.cfg").write_text(json.dumps(make_doc()))
        rc = main(["simulate", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,x_2,x_3,disagreement,V"
        v = np.array([float(r.split(",")[-1]) for r in lines[1:]])
        assert np.all(np.diff(v) <= 1e-9)

    def test_mixed_kinds_make_no_per_point_calls(self, tmp_path, monkeypatch):
        # the bank applies each family's kernel to whole arrays, so neither
        # the field nor the Lyapunov column goes through the scalar wrappers
        from ftconsensus import protocols
        calls = []
        for name in ("evaluate", "antiderivative"):
            original = getattr(protocols, name)
            monkeypatch.setattr(protocols, name,
                                lambda f, z, _name=name, _f=original: calls.append(_name) or _f(f, z))
        specs = ["powerlinear{a=1,b=1,c=0.75}", "logpower{a=1,c=0.5}", "linear{k=1}"]
        (tmp_path / "c.cfg").write_text(json.dumps(make_doc(protocols=specs)))
        assert main(["simulate", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "trajectory.csv").read_text().startswith("t,x_1,x_2,x_3,disagreement,V\n")
        assert calls == []
        protocols.evaluate(protocols.Linear(k=1.0), 1.0)
        assert calls == ["evaluate"]

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        rc = main(["simulate", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def fault(args):
            raise RuntimeError("unexpected\nfault")

        # a first call builds the parser, so the fault is reached through the cached one
        assert main(["simulate", str(FIG1_CFG), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_simulate", fault)
        rc = main(["simulate", str(FIG1_CFG), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "RuntimeError" in err and "unexpected fault" in err
        assert err.count("\n") == 1

    def test_invalid_config_is_failure(self, tmp_path, capsys):
        doc = make_doc()
        doc["graph"]["edges"].append([1, 1, 1.0])
        (tmp_path / "bad.cfg").write_text(json.dumps(doc))
        rc = main(["simulate", str(tmp_path / "bad.cfg"), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,field", [
        ('"x0": [2.0', '"x0": [' + "1" * 401, "x0"),
        ("[1, 2, 1.0]", "[1, 2, 1" + "0" * 400 + "]", "edge [1, 2, 1"),
        ("[1, 2, 1.0]", "[1, 2, 1e400]", "edge [1, 2, inf]"),
        ('"t_max": 20.0', '"t_max": 1' + "0" * 400, "t_max"),
    ], ids=["x0-int", "weight-int", "weight-1e400", "t_max-int"])
    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_oversized_numbers_exit_one(self, command, old, new, field, tmp_path, capsys):
        text = FIG1_CFG.read_text()
        assert old in text
        (tmp_path / "big.cfg").write_text(text.replace(old, new, 1))
        rc = main([command, str(tmp_path / "big.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert "finite" in err and "internal" not in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("old,new,fragment", [
        ('"n": 4', '"n": 4611686018427387904', "x0 must be an array of 4611686018427387904 numbers"),
        ('"n": 4', '"n": 1' + "0" * 400, "x0 must be an array of 1000"),
        ('"n": 4', '"n": true', "graph.n must be a positive integer"),
        ("[1, 2, 1.0]", "[1, 2, true]", "edge [1, 2, True]: weight must be a positive number"),
        ('"x0": [2.0', '"x0": [0, 0, 0, 0], "x0": [2.0', "repeated field 'x0'"),
        ('"dt": 1e-3,', '"dt": 1e-3, "dt": 1e-4,', "repeated field 'dt'"),
        ("c=0.75}", "c=0.75,a=2}", "repeated key 'a' in spec"),
    ], ids=["n-2**62", "n-10**400", "n-true", "weight-true", "x0-twice", "dt-twice", "spec-key-twice"])
    def test_huge_or_boolean_fields_exit_one(self, old, new, fragment, tmp_path, capsys):
        text = FIG1_CFG.read_text()
        assert old in text
        (tmp_path / "bad.cfg").write_text(text.replace(old, new, 1))
        rc = main(["simulate", str(tmp_path / "bad.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "certify"])
    def test_record_budget_exits_one(self, command, tmp_path, capsys):
        # settled at t ~ 2.75, the frozen tail up to t_max = 1e12 would be 1e14 records
        text = FIG1_CFG.read_text()
        (tmp_path / "long.cfg").write_text(text.replace('"t_max": 20.0', '"t_max": 1e12', 1))
        start = time.perf_counter()
        rc = main([command, str(tmp_path / "long.cfg"), "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 1, err
        assert elapsed < 1.0
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "t_max" in err and "record_stride" in err and "internal" not in err
        assert not (tmp_path / "o").exists()

    def test_memory_follows_the_records(self, tmp_path, capsys):
        # 48 agents, 10 000 RK4 steps without the freeze rule: 1001 records
        n = 48
        doc = {"graph": {"n": n, "edges": [[v, v % n + 1, 1.0] for v in range(1, n + 1)]},
               "protocols": "powerlinear{a=1,b=1,c=0.75}",
               "x0": [round(math.sin(v), 6) for v in range(n)],
               "sim": {"t_max": 10.0, "freeze_on_consensus": False}}
        (tmp_path / "c.cfg").write_text(json.dumps(doc))
        argv = ["simulate", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]
        assert main(argv) == 0  # imports and first-call caches are not the run's
        rc = []
        peak = traced_peak(lambda: rc.append(main(argv)))
        assert rc == [0]
        assert len((tmp_path / "o" / "trajectory.csv").read_text().splitlines()) == 1 + 1001
        records_bytes = 1001 * n * 8
        assert peak <= 2 * records_bytes + 256 * 2**10


def _hand_built(with_v: bool):
    """A 3-record trajectory over plain floats, and its CSV as .17g joins."""
    times = [0.0, 0.1, 0.30000000000000004]
    states = [[1.0, -2.5], [1 / 3, 2e-300], [math.pi, -0.0]]
    dis = [3.5, 1 / 3 - 2e-300, math.pi]
    lyap = [1.5, 0.1, 5e-324]
    rows = [[t, *x, d] + ([v] if with_v else []) for t, x, d, v in zip(times, states, dis, lyap)]
    text = "t,x_1,x_2,disagreement" + (",V" if with_v else "") + "\n"
    text += "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    traj = Trajectory(times=np.array(times), states=np.array(states), disagreement=np.array(dis),
                      lyapunov=np.array(lyap) if with_v else None)
    return traj, text


class TestTrajectoryCsv:
    def test_frozen_tail_rows_repeat_the_last_held_row(self, tmp_path):
        # two held rows and three tail records: each tail row is the last
        # held row's cells after its own t
        traj, _ = _hand_built(True)
        times = [0.0, 0.1, 0.2, 0.25, 1 / 3]
        tail = Trajectory(times=np.array(times), states=traj.states[:2],
                          disagreement=np.array([3.5, 0.0, 0.0, 0.0, 0.0]),
                          lyapunov=np.array([1.5, 5e-324, 5e-324, 5e-324, 5e-324]))
        x2 = [f"{v:.17g}" for v in traj.states[1]]
        rows = [[f"{v:.17g}" for v in (0.0, *traj.states[0], 3.5, 1.5)]]
        rows += [[f"{t:.17g}", *x2, "0", "4.9406564584124654e-324"] for t in times[1:]]
        text = "t,x_1,x_2,disagreement,V\n" + "".join(",".join(r) + "\n" for r in rows)
        cli._write_trajectory_csv(tmp_path / "trajectory.csv", tail)
        assert (tmp_path / "trajectory.csv").read_text() == text

    @pytest.mark.parametrize("with_v", [False, True])
    def test_rows_are_17g_joins(self, with_v, tmp_path):
        traj, text = _hand_built(with_v)
        cli._write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        assert (tmp_path / "trajectory.csv").read_bytes() == text.encode()
        assert os.listdir(tmp_path) == ["trajectory.csv"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        traj, _ = _hand_built(True)
        cells = []

        def full_disk(v):
            cells.append(v)
            if len(cells) == 8:  # partway through the second row
                raise OSError(28, "No space left on device")
            return f"{v:.17g}"

        monkeypatch.setattr(cli, "_fmt", full_disk)
        with pytest.raises(OSError):
            cli._write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        assert os.listdir(tmp_path) == []
        # an earlier file stays whole
        (tmp_path / "trajectory.csv").write_text("old\n")
        cells.clear()
        with pytest.raises(OSError):
            cli._write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        assert os.listdir(tmp_path) == ["trajectory.csv"]
        assert (tmp_path / "trajectory.csv").read_text() == "old\n"
        # through the command: exit 2, and neither output is written
        cells.clear()
        rc = main(["simulate", str(FIG1_CFG), "--out", str(tmp_path / "o")])
        assert rc == 2 and "No space left" in capsys.readouterr().err
        assert os.listdir(tmp_path / "o") == []
        # the JSON outputs go through the same writer: a lone surrogate fails
        # to encode once the file is open, and an earlier file stays whole
        bad = '{"x": "\ud800"}'
        (tmp_path / "j").mkdir()
        (tmp_path / "j" / "summary.json").write_text("old\n")
        for name in ("summary.json", "certificate.json"):
            with pytest.raises(UnicodeEncodeError):
                cli._write_text(tmp_path / "j" / name, bad)
        assert os.listdir(tmp_path / "j") == ["summary.json"]
        assert (tmp_path / "j" / "summary.json").read_text() == "old\n"
        # through the command: exit 1 with one line, and no certificate.json
        monkeypatch.setattr(cli, "_json", lambda v: bad)
        rc = main(["certify", str(FIG1_CFG), "--out", str(tmp_path / "c")])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path / "c") == []


class TestCertifyCommand:
    def test_fig1_two_stages(self, tmp_path, capsys):
        rc = main(["certify", str(FIG1_CFG), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "certificate.json").read_text())
        assert doc["spanning_tree"] is True
        assert doc["components"] == [[0, 1, 2], [3]]
        assert doc["dag_edges"] == [[0, 1]]
        assert len(doc["certificates"]) == 2
        root, follower = doc["certificates"]
        assert root["alpha"] == pytest.approx(6.0 / 7.0)
        assert root["c1_source"] == "a-posteriori-trajectory"
        assert follower["lambda1"] == pytest.approx(1.0)
        assert doc["overall_bound"] == pytest.approx(root["t_star"] + follower["t_star"])
        assert doc["overall_bound_kind"] == "empirical-hybrid"
        assert "overall settling bound" in capsys.readouterr().out

    def test_no_spanning_tree_still_exits_zero(self, tmp_path, capsys):
        doc = make_doc()
        doc["graph"] = {"n": 4, "edges": [[1, 2, 1.0], [2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]]}
        doc["x0"] = [1.0, 1.0, -1.0, -1.0]
        (tmp_path / "split.cfg").write_text(json.dumps(doc))
        rc = main(["certify", str(tmp_path / "split.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no directed spanning tree" in out
        doc = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert doc["spanning_tree"] is False
        assert doc["overall_bound"] is None

    def test_unsettled_ancestors_get_a_line(self, tmp_path, capsys):
        # fig1 stopped at t = 1: the follower's ancestors never settle, so no
        # overall bound; stdout says so, as the other no-bound exits do
        doc = json.loads(FIG1_CFG.read_text())
        doc["sim"]["t_max"] = 1.0
        (tmp_path / "short.cfg").write_text(json.dumps(doc))
        rc = main(["certify", str(tmp_path / "short.cfg"), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert out.splitlines()[1:] == [
            "no overall bound: a stage's ancestors never settled within the horizon (see notes)"]
        doc = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert doc["overall_bound"] is None and doc["certificates"][0] is not None
        assert doc["notes"][-1].startswith("component 1: ancestors never settled")

    @pytest.mark.parametrize("fields", [
        {"protocols": "linear{k=1}"},
        {"protocols": ["linear{k=1}", "powerlinear{a=1,b=1,c=0.75}", "logpower{a=1,c=0.5}",
                       "linear{k=2}"]},
        {"graph": {"n": 3, "edges": [[1, 2, 1], [1, 3, 2]]}, "x0": [2.0, -1.0, 3.0],
         "protocols": "linear{k=1}"},
    ])
    def test_linear_agent_gets_a_note_not_an_error(self, fields, tmp_path, capsys):
        # a linear agent's f^2 / F^alpha tends to 0 at 0, so the proven ratio
        # bound is 0: A2 fails as a hypothesis, like a missing spanning tree
        doc = dict(json.loads(FIG1_CFG.read_text()), **fields)
        (tmp_path / "lin.cfg").write_text(json.dumps(doc))
        rc = main(["certify", str(tmp_path / "lin.cfg"), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert out.splitlines()[1:] == ["ratio bound (A2) is 0: finite-time consensus hypothesis fails"]
        doc = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert doc["spanning_tree"] is True and doc["overall_bound"] is None
        assert doc["certificates"] == [None] * len(doc["components"])
        assert doc["notes"][-1].startswith("ratio bound (A2) is 0")

    @pytest.mark.parametrize("fields, nulls", [
        # a one-agent root has no feedback direction: C1 is infinite
        ({"graph": {"n": 3, "edges": [[1, 2, 1], [1, 3, 2]]}, "x0": [2.0, -1.0, 3.0]},
         [["c1", "lambda1"], [], []]),
        # x0 = 0 gives M = 0: the ratio bound over an empty range is infinite
        ({"x0": [0.0] * 4}, [["beta", "lambda1"], ["beta"]]),
        ({"graph": {"n": 1, "edges": []}, "x0": [2.0]}, [["beta", "c1", "lambda1"]]),
    ])
    def test_certificate_is_standard_json(self, fields, nulls, tmp_path):
        # a non-finite constant is written as null, never as Infinity or NaN
        def refuse(constant):
            raise ValueError(f"{constant} is not standard JSON")

        doc = dict(json.loads(FIG1_CFG.read_text()), **fields)
        (tmp_path / "c.cfg").write_text(json.dumps(doc))
        assert main(["certify", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "certificate.json").read_text(), parse_constant=refuse)
        assert [sorted(k for k, v in c.items() if v is None) for c in doc["certificates"]] == nulls
        assert doc["overall_bound"] is not None  # every stage is still bounded

    @pytest.mark.parametrize("scale, code",[(1e-315, 1), (1e-300, 1), (1e-200, 1), (1e-150, 0)])
    def test_tiny_x0_scale_is_named(self, scale, code, tmp_path, capsys):
        # below some scale f^2 or F underflows to 0 at the bottom of the ratio
        # grid, M * 1e-12; that is the state's fault, not the protocol's
        doc = json.loads(FIG1_CFG.read_text())
        doc["x0"] = [v * scale for v in doc["x0"]]
        (tmp_path / "tiny.cfg").write_text(json.dumps(doc))
        rc = main(["certify", str(tmp_path / "tiny.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code
        if code:
            assert err.count("\n") == 1
            assert err.startswith(f"error: argument bound M = {6 * scale:g} too small")
            assert "the x0 scale" in err and "antiderivative" not in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec,scale", [
        # bound 1.02, closed form 1.12e-17 (a grid that started at M 1e-12 gave 1.29e-51)
        ("powerlinear{a=1,b=1,c=0.5}", 1e50),
        # bound 1.03, closed form 6.96e-4 (1.16e-4 from that grid)
        ("powerlinear{a=1,b=1,c=0.75}", 1e14),
        # bound 1.61, closed form 0.55
        ("powerlinear{a=1,b=1,c=0.75}", 1.0),
    ])
    @pytest.mark.parametrize("shrink", [1.0, 1e-20])
    def test_closed_form_above_the_bound_is_noted(self, spec, scale, shrink, tmp_path, monkeypatch, capsys):
        # a unit 3-cycle, so M = ||L||_inf ||x0||_inf = 2 scale, and check-protocol at
        # that M follows the same rule: it leaves the closed form out where certify
        # notes it.  No spec is known whose closed form exceeds the proven bound, so
        # a bound shrunk below the closed form stands in for one
        bound = protocols._ratio_min_single
        monkeypatch.setattr(protocols, "_ratio_min_single", lambda *args: bound(*args) * shrink)
        noted = shrink < 1.0
        doc = make_doc(protocols=spec, x0=[scale, 0.0, -scale], sim={"t_max": 1.0})
        (tmp_path / "big.cfg").write_text(json.dumps(doc))
        assert main(["certify", str(tmp_path / "big.cfg"), "--out", str(tmp_path / "o")]) == 0
        notes = json.loads((tmp_path / "o" / "certificate.json").read_text())["notes"]
        note = "closed-form beta exceeds the ratio lower bound; the bound is used"
        assert (note in notes) == noted, notes
        capsys.readouterr()
        assert main(["check-protocol", "--spec", spec, "--bound", repr(2.0 * scale)]) == 0
        out = capsys.readouterr().out
        assert ("beta (closed-form)" in out) != noted, out
        assert ("beta (used, grid-bound)" in out) == noted, out


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_strongly_connected_graph_is_searched_once(command, tmp_path, monkeypatch):
    n = 30
    w = random_strongly_connected(np.random.default_rng(7), n).weights
    rows, cols = np.nonzero(w)
    doc = make_doc(
        graph={"n": n, "edges": [[int(j) + 1, int(i) + 1, float(w[i, j])] for i, j in zip(rows, cols)]},
        x0=list(np.linspace(-2.5, 2.5, n)),
        sim={"t_max": 2.0},
    )
    (tmp_path / "scc.cfg").write_text(json.dumps(doc))
    searches = count_graph_searches(monkeypatch)
    assert main([command, str(tmp_path / "scc.cfg"), "--out", str(tmp_path / "o")]) == 0
    assert len(searches) == 1


def _chained_cycles_doc() -> dict:
    """Three unit 3-cycles, the first feeding the second and both feeding the third."""
    edges = [[c + a, c + b, 1.0] for c in (1, 4, 7) for a, b in ((0, 1), (1, 2), (2, 0))]
    return make_doc(graph={"n": 9, "edges": edges + [[3, 4, 1.0], [6, 7, 1.0], [1, 8, 0.5]]},
                    x0=[2.0, -1.0, 3.0, -2.0, 0.5, 1.5, -0.5, 2.5, 0.0],
                    sim={"t_max": 30.0, "eps_consensus": 1e-6})


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("config", ["fig1", "chained-cycles"])
def test_each_command_runs_one_scc_search(command, config, tmp_path, monkeypatch):
    path = FIG1_CFG
    if config == "chained-cycles":
        path = tmp_path / "chain.cfg"
        path.write_text(json.dumps(_chained_cycles_doc()))
    searches = count_graph_searches(monkeypatch)
    assert main([command, str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(searches) == 1
    if command == "certify":  # every stage, followers included, was certified
        report = json.loads((tmp_path / "o" / "certificate.json").read_text())
        assert len(report["components"]) > 1 and None not in report["certificates"]


class TestCheckProtocolCommand:
    def test_linear_fails_ratio(self, capsys):
        rc = main(["check-protocol", "--spec", "linear{k=1}", "--bound", "6"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_powerlinear_passes(self, capsys):
        rc = main(["check-protocol", "--spec", "powerlinear{a=1,b=1,c=0.75}", "--bound", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"alpha = {6/7:.12g}" in out
        assert "beta (closed-form)" in out
        assert "warning" not in out

    def test_logpower_passes_with_monotonicity_warning(self, capsys):
        rc = main(["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning: monotonicity fails" in out
        assert "pass" in out

    def test_bad_spec_reports_failure(self, capsys):
        rc = main(["check-protocol", "--spec", "powerlinear{a=1}", "--bound", "6"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_explicit_beta_too_large_fails(self, capsys):
        rc = main(["check-protocol", "--spec", "powerlinear{a=1,b=1,c=0.75}",
                   "--bound", "6", "--alpha", str(6 / 7), "--beta", "100"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning would be a second stderr line
    @pytest.mark.parametrize("spec,flags,code,fragment", [
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "6", "--beta", "-5"], 1, "--beta must be positive"),
        ("powerlinear{a=1,a=2,b=1,c=0.5}", ["--bound", "6"], 1, "repeated key 'a' in spec"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "6", "--beta", "0"], 1, "--beta must be positive"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "6", "--beta", "inf"], 1, "--beta must be finite"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "6", "--alpha", "nan"], 1, "--alpha must be finite"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "inf"], 1, "--bound must be finite"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "1e160"], 1, "argument bound M = 1e+160 too large"),
        ("logpower{a=1,c=0.5}", ["--bound", "1e300"], 1, "argument bound M = 1e+300 too large"),
        ("powerlinear{a=1,b=1e300,c=0.5}", ["--bound", "6"], 1, "argument bound M = 6 too large for PowerLinear("),
        ("linear{k=1e-320}", ["--bound", "6"], 1, "argument bound M = 6 too small for Linear(k=1e-320), or that"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "1e150"], 0, None),
        ("linear{k=1}", ["--bound", "1e150"], 1, None),
        # a linear ratio tends to 0 (here like z^0.2), so no beta > 0 holds down to z = 0
        ("linear{k=1}", ["--bound", "6", "--alpha", "0.9", "--beta", "1e-3"], 1, None),
        # the bound is 0, below any explicit beta however small
        ("linear{k=1}", ["--bound", "6", "--beta", "1e-10"], 1, None),
        # alpha below 2c/(1+c) = 6/7: the power-linear ratio tends to 0 like z^0.03
        ("powerlinear{a=1,b=1,c=0.75}", ["--bound", "6", "--alpha", "0.84"], 1, None),
        # F(M) is finite, but np.where's discarded ln-branch overflows there
        ("logpower{a=12528.6,c=0.4968}", ["--bound", "2.03e202"], 0, None),
        # continuous couplings with a large gain or a small c: every A1 line passes
        ("powerlinear{a=1e3,b=1,c=0.5}", ["--bound", "6"], 0, None),
        ("powerlinear{a=1,b=1e6,c=0.5}", ["--bound", "6"], 0, None),
        ("logpower{a=1e3,c=0.5}", ["--bound", "6"], 0, None),
        ("logpower{a=1,c=0.01}", ["--bound", "6"], 0, None),
        # F underflows to 0 at the bottom of the grid, M * 1e-12
        ("linear{k=1}", ["--bound", "1e-300"], 1, "argument bound M = 1e-300 too small"),
        ("powerlinear{a=1,b=1,c=0.5}", ["--bound", "1e-300"], 1, "argument bound M = 1e-300 too small"),
        ("logpower{a=1,c=0.5}", ["--bound", "1e-300"], 1, "argument bound M = 1e-300 too small"),
        # M 1e-12 underflows to 0, so the grid starts at the least float
        ("powerlinear{a=1,b=1,c=0.75}", ["--bound", "1e-320"], 1, "argument bound M = 9.99989e-321 too small"),
        ("powerlinear{a=1,b=1,c=0.75}", ["--bound", "5e-324"], 1, "argument bound M = 4.94066e-324 too small"),
    ])
    def test_numeric_flags_exit_with_one_line(self, spec, flags, code, fragment, capsys):
        rc = main(["check-protocol", "--spec", spec, *flags])
        err = capsys.readouterr().err
        assert rc == code, err
        assert err.count("\n") <= 1
        if fragment is not None:
            assert fragment in err
        if "argument bound" in (fragment or ""):  # the one scale error names where M comes from
            assert "check-protocol's --bound" in err and "the x0 scale" in err

    def test_one_scale_check_at_M(self, monkeypatch, capsys):
        # f and F are taken once at the scalar M (the overflow check) and once on
        # the ratio grid, whose every cell the underflow check reads; no call at
        # the grid bottom alone
        calls = {"_f": [], "_F": []}
        for name, seen in calls.items():
            def counting(f, z, original=getattr(protocols, name), seen=seen):
                seen.append(np.asarray(z))
                return original(f, z)
            monkeypatch.setattr(protocols, name, counting)
        assert main(["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6"]) == 0
        for name, seen in calls.items():
            assert [float(z) for z in seen if z.ndim == 0] == [6.0], name
            assert [z.size for z in seen if z.ndim] == [protocols._ratio_grid(6.0).size], name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ["powerlinear{a=1e200,b=1,c=0.5}", "logpower{a=1e200,c=0.5}"])
    @pytest.mark.parametrize("bound", ["1e-300", "1e-100"])
    def test_overflowing_closed_form_is_not_used(self, spec, bound, capsys):
        # a**2 overflows a float: the closed form is unavailable, not an internal error
        rc = main(["check-protocol", "--spec", spec, "--bound", bound])
        captured = capsys.readouterr()
        assert rc in (0, 1), captured.err
        assert captured.err.count("error:") <= 1
        assert "closed-form" not in captured.out

    @pytest.mark.parametrize("spec,bound,line", [
        # the exit-0 cases of test_numeric_flags_exit_with_one_line without --beta
        ("powerlinear{a=1,b=1,c=0.5}", "1e150", "beta (used, closed-form) = 6.55185348552e-51"),
        ("logpower{a=12528.6,c=0.4968}", "2.03e202", None),
        ("powerlinear{a=1e3,b=1,c=0.5}", "6", None),
        ("powerlinear{a=1,b=1e6,c=0.5}", "6", None),
        ("logpower{a=1e3,c=0.5}", "6", None),
        ("logpower{a=1,c=0.01}", "6", None),
        # the grid starts at 1/e, so the bounds, 1.03 and 1.02, are near the infima:
        # the closed forms 5.8e-33 and 1.1e-17 lie below them and are used (a grid
        # that started at M 1e-12 gave bounds of 3.4e-237 and 1.3e-51)
        ("powerlinear{a=1,b=1,c=0.75}", "1e150", "beta (used, closed-form) = 5.81341315341e-33"),
        # certify's M for a unit 3-cycle at x0 = 1e50 (1, 0, -1) (TestCertifyCommand)
        ("powerlinear{a=1,b=1,c=0.5}", "2e50", "beta (used, closed-form) = 1.12035118664e-17"),
    ])
    def test_used_beta_does_not_exceed_the_ratio_bound(self, spec, bound, line, capsys):
        assert main(["check-protocol", "--spec", spec, "--bound", bound]) == 0
        out = capsys.readouterr().out.splitlines()
        values = dict(row.split(" = ") for row in out if " = " in row)
        used = next(v for k, v in values.items() if k.startswith("beta (used"))
        ratio = next(v for k, v in values.items() if k.startswith("ratio lower bound"))
        assert float(used) <= float(ratio), out
        if line is not None:
            assert line in out

    @pytest.mark.parametrize("flags,line", [
        ([], "beta (used, closed-form) = 0.483295511233"),
        (["--beta", "0.1"], "beta (used, explicit) = 0.1"),
    ])
    def test_beta_label_names_its_source(self, flags, line, capsys):
        rc = main(["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6", *flags])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "beta (closed-form) = 0.483295511233" in out
        assert line in out


@pytest.mark.parametrize("argv,fragment", [
    # argparse reads a separate "-1e+16" (exponent form) as an option, not a value
    (["check-protocol", "--spec", "linear{k=1}", "--bound", "6", "--beta", "-1e+16"],
     "argument --beta: expected one argument"),
    (["check-protocol", "--spec", "linear{k=1}", "--bound", "six"], "invalid float value: 'six'"),
    (["check-protocol", "--spec", "linear{k=1}"], "required: --bound"),
    (["simulate", str(FIG1_CFG)], "required: --out"),
    (["demo-paper", "--out", "o", "--extra"], "unrecognized arguments: --extra"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "required: command"),
])
def test_usage_errors_exit_one_with_one_line(argv, fragment, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["check-protocol", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ftconsensus")


@pytest.mark.parametrize("module", ["ftconsensus", "ftconsensus.cli"])
@pytest.mark.parametrize("spec,code", [("powerlinear{a=1,b=1,c=0.75}", 0), ("powerlinear{a=1", 1)])
def test_python_m_runs_the_command(module, spec, code, tmp_path, capsys):
    # `python -m ftconsensus` and `python -m ftconsensus.cli` print what main prints
    argv = ["check-protocol", "--spec", spec, "--bound", "6"]
    assert main(argv) == code
    expected = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    if code:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_commands_leave_no_cyclic_garbage(tmp_path):
    # one parser per process, and JSON written without the encoder's closures:
    # once a first call has built the parser, a command leaves nothing for the
    # cycle collector
    commands = [
        ["simulate", str(FIG1_CFG), "--out", str(tmp_path / "s")],
        ["certify", str(FIG1_CFG), "--out", str(tmp_path / "c")],
        ["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6"],
        ["demo-paper", "--out", str(tmp_path / "d")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(commands[0]) == 0
        gc.collect()
        gc.disable()
        try:
            left = {argv[0]: (main(argv), gc.collect()) for argv in commands}
        finally:
            gc.enable()
    assert left == {argv[0]: (0, 0) for argv in commands}


def test_json_matches_the_standard_encoder():
    # cli._json stands in for json.dumps(v, indent=2, sort_keys=True)
    docs = [{}, [], (), {"b": {}, "a": [[]]}, {"z": [1, 2.5, None, True, False, "x\u00e9\"\n"],
            "y": (float("inf"), -float("inf"), float("nan"), np.float64(0.1)), "x": [[{"k": ()}]]},
            1e-300, "text", None]
    for doc in docs:
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


class TestDemoPaper:
    def test_outputs_and_determinism(self, tmp_path):
        for d in ("a", "b"):
            rc = main(["demo-paper", "--out", str(tmp_path / d)])
            assert rc == 0
        for name in ("fig2.csv", "fig3.csv", "demo_summary.json"):
            ba = (tmp_path / "a" / name).read_bytes()
            bb = (tmp_path / "b" / name).read_bytes()
            assert ba == bb
        summary = json.loads((tmp_path / "a" / "demo_summary.json").read_text())
        assert set(summary) == {"fig2.csv", "fig3.csv"}
        for v in summary.values():
            assert v["settled_at"] is not None
            assert v["final_disagreement"] <= 1e-9
        header = (tmp_path / "a" / "fig2.csv").read_text().splitlines()[0]
        assert header == "t,x_1,x_2,x_3,x_4,disagreement"


SRC = REPO / "src" / "ftconsensus"
# file name (relative to SRC) -> source text of each module of the package
SOURCES = {path.relative_to(SRC).as_posix(): path.read_text() for path in sorted(SRC.rglob("*.py"))}
# importing these loads no numeric module; each command imports its own
COLD_START_FILES = ("__init__.py", "_record.py", "config.py", "cli.py", "errors.py")
# nor these, which cost a cold start more than the package itself
SLOW_MODULES = ("dataclasses", "inspect", "argparse", "typing")

_SORT = ("every order the package needs is known by construction (geomspace ascends, the mixed bank scatters "
         "by index); numpy's sort and what is built on it page in 256 KiB of _multiarray_umath")
_MA = "np.unique and np.median load numpy.ma"
_SVD = ("omega comes from GTH elimination and no command fits a curve; an SVD (or the SVD least squares "
        "behind lstsq and polyfit) would load LAPACK code and workspace that no result needs")
_NUMERIC = "importing a cold-start file loads no numeric module; each command imports its own"
# (name, scope, reason) of each name that no module of the package uses.  The scopes:
#   numpy        np.NAME or numpy.NAME, or a part of a numpy import after "numpy"
#   attribute    NAME within any attribute or imported name
#   import       module NAME, or one inside it, imported anywhere, function bodies included
#   import-time  the same, imported outside function bodies by COLD_START_FILES
# They also cover the paths that the fresh-interpreter tests do not run.
FORBIDDEN = [
    ("random", "numpy", "np.random costs ~6 MB of RSS"),
    ("ma", "numpy", _MA + ", which no result needs"),
    ("unique", "numpy", f"{_SORT}; {_MA}"),
    ("median", "numpy", f"{_SORT}; {_MA}"),
    *[(name, "numpy", _SORT) for name in ("sort", "lexsort", "partition", "percentile", "quantile")],
    *[(name, "attribute", _SORT) for name in ("argsort", "argpartition")],
    *[(name, "attribute", _SVD) for name in ("svd", "lstsq", "polyfit")],
    ("einsum", "attribute", "the RK4 loop observes C1 by BLAS products; an einsum pages in its own code"),
    ("scipy", "import", "no call path imports scipy"),
    ("dataclasses", "import", "one way to declare a record: a class with fields subclasses _record.Record"),
    ("numpy", "import-time", _NUMERIC),
    *[(f"ftconsensus.{module}", "import-time", _NUMERIC) for module in ("graph", "protocols", "dynamics", "analysis")],
    *[(module, "import-time", "it costs a cold start more than the package itself")
      for module in SLOW_MODULES if module != "dataclasses"],  # dataclasses has an import row
]
forbidden_rows = pytest.mark.parametrize("name, scope, reason", FORBIDDEN,
                                         ids=[f"{scope}:{name}" for name, scope, _ in FORBIDDEN])


@functools.cache
def references(source: str) -> tuple:
    """(line, kind, name) of each name that ``source`` references, walked once per text.
    Kind "np" is np.NAME or numpy.NAME, "attribute" any other .NAME, and "import" each
    module an import names (x and x.y for ``from x import y``, a relative x resolved in
    ftconsensus); an import outside function bodies is listed again as "import-time"."""
    found, stack = [], [(node, False) for node in parsed(source).body]
    while stack:
        node, in_function = stack.pop()
        if isinstance(node, ast.Attribute):
            kind = "np" if getattr(node.value, "id", None) in ("np", "numpy") else "attribute"
            found.append((node.lineno, kind, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                base = node.module or ""
                if node.level:
                    base = "ftconsensus" + (f".{base}" if base else "")
                modules = [base] + [f"{base}.{a.name}" for a in node.names]
            kinds = ["import"] if in_function else ["import", "import-time"]
            found += [(node.lineno, kind, module) for module in modules for kind in kinds]
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        stack += [(child, in_function) for child in ast.iter_child_nodes(node)]
    return tuple(sorted(found))


def forbidden_uses(sources, name, scope) -> list:
    """'file:line reference' for each use of the forbidden ``name`` in ``scope`` (see
    FORBIDDEN) by ``sources``, which map file name to source text."""
    def uses(kind, ref):
        parts = ref.split(".")
        if scope == "numpy":
            return ref == name if kind == "np" else kind == "import" and parts[0] == "numpy" and name in parts[1:]
        if scope == "attribute":
            return kind != "import-time" and name in ref
        return kind == scope and (ref + ".").startswith(name + ".")

    files = COLD_START_FILES if scope == "import-time" else sources
    return [f"{file}:{line} {ref}" for file in files for line, kind, ref in references(sources[file])
            if uses(kind, ref)]


class TestColdStart:
    SCRIPT = """
import json, sys
import numpy as np
import ftconsensus.cli
from ftconsensus.analysis import estimate_c1
cfg, out = sys.argv[1], sys.argv[2]
commands = [["simulate", cfg, "--out", out], ["certify", cfg, "--out", out],
            ["check-protocol", "--spec", "logpower{a=1,c=0.5}", "--bound", "6"],
            ["demo-paper", "--out", out]]
def loaded():
    return [m for m in ("scipy", "numpy.random", "numpy.ma") if m in sys.modules]
steps = [[ftconsensus.cli.main(argv), loaded()] for argv in commands]
B = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
steps.append([estimate_c1(B, "a_priori")[1], loaded()])
print(json.dumps(steps))
"""

    NUMPY_SCRIPT = """
import json, sys
steps = []
def step(value=None):
    steps.append([value, "numpy" in sys.modules])
import ftconsensus
step(hasattr(ftconsensus, "no_such_name"))
import ftconsensus.cli
from ftconsensus.config import load_config, parse_config
from ftconsensus.errors import ConfigValidationError
step()
good, bad, out = sys.argv[1:4]
step(load_config(good).n)
try:
    parse_config('{"graph": {"n": 1, "edges": []}, "protocols": "linear{k=0}", "x0": [0]}')
except ConfigValidationError as exc:
    step(str(exc))
step(ftconsensus.cli.main(["simulate", bad, "--out", out]))
step(ftconsensus.cli.main(["check-protocol", "--spec", "bogus{}", "--bound", "1"]))
try:
    ftconsensus.cli.main(["--help"])
except SystemExit as exc:
    step(exc.code)
step(ftconsensus.cli.main(["simulate", good, "--out", out]))
print(json.dumps(steps))
"""

    # the public names of the package, by source module
    OLD_EXPORTS = {
        "graph": "Condensation WeightedDigraph condensation has_spanning_tree laplacian left_null_vector "
                 "mirror_laplacian",
        "protocols": "CriteriaReport Linear LogPower PowerLinear ProtocolBank antiderivative check_a1 "
                     "check_a2 evaluate parse_protocol_spec",
        "dynamics": "SimulationConfig Trajectory integrate lyapunov_trace lyapunov_value settling_time",
        "analysis": "CertificationReport ConvergenceCertificate c2_constant certify estimate_c1 "
                    "settling_bound_rooted",
        "config": "ExperimentConfig load_config parse_config",
    }

    @staticmethod
    def _run_fresh(script, *args):
        path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1]), proc.stderr

    def test_simulate_never_loads_scipy_optimize(self, tmp_path):
        # every command, and the a-priori C1 estimate, runs without scipy,
        # numpy.random or numpy.ma
        steps, _ = self._run_fresh(self.SCRIPT, FIG1_CFG, tmp_path / "o")
        assert steps == [[0, []], [0, []], [0, []], [0, []], ["mixed-sign-infimum", []]]

    def test_config_checks_load_no_numpy(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FIG1_CFG.read_text().replace('"x0": [2.0', '"x0": [1' + "0" * 400, 1))
        steps, err = self._run_fresh(self.NUMPY_SCRIPT, FIG1_CFG, bad, tmp_path / "o")
        assert steps == [
            [False, False],  # import ftconsensus, then probe an unknown name
            [None, False],  # import ftconsensus.cli and the config module
            [4, False],  # load_config
            ["linear gain k must be positive", False],  # parse_config fails validation
            [1, False],  # simulate on an invalid config
            [1, False],  # check-protocol with an unknown protocol kind
            [0, False],  # --help
            [0, True],  # the first command that computes loads numpy
        ]
        assert err.splitlines() == ["error: x0 entries must be finite",
                                    "error: unknown protocol kind: 'bogus'"]

    def test_exports_resolve_to_their_defining_objects(self):
        import importlib

        star = {}
        exec("from ftconsensus import *", star)
        names = [name for names in self.OLD_EXPORTS.values() for name in names.split()]
        assert sorted(ftconsensus.__all__) == sorted(names)
        for module_name, names in self.OLD_EXPORTS.items():
            module = importlib.import_module(f"ftconsensus.{module_name}")
            for name in names.split():
                obj = getattr(ftconsensus, name)
                assert obj is getattr(module, name) is star[name], name
                assert getattr(sys.modules[obj.__module__], name) is obj, name
        config = importlib.import_module("ftconsensus.config")
        for module_name, names in [("protocols", "Linear PowerLinear LogPower ProtocolFunction "
                                                 "parse_protocol_spec"),
                                   ("dynamics", "SimulationConfig")]:
            module = importlib.import_module(f"ftconsensus.{module_name}")
            for name in names.split():
                assert getattr(module, name) is getattr(config, name), name
        # _EXPORTS is the one list of public names: no submodule keeps a second
        assert sorted({file for file, node in self._nodes() if isinstance(node, ast.Name)
                       and node.id == "__all__" and isinstance(node.ctx, ast.Store)}) == ["__init__.py"]

    @staticmethod
    def _unreached_exports(sources, exports, readme):
        """Exported names that no command reaches and README does not name in backticks.

        ``sources`` maps file name to source text.  The ``cmd_*`` functions
        are reached; so is every top-level function, class (all its methods
        with it) or assignment whose name a reached one's body uses."""
        defs = {}
        for source in sources.values():
            for node in parsed(source).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    defs.setdefault(name, []).append(node)
        reached, todo = set(), [name for name in defs if name.startswith("cmd_")]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [n.id for node in defs[name] for n in ast.walk(node)
                         if isinstance(n, ast.Name) and n.id in defs]
        return [name for names in exports.values() for name in names
                if name not in reached and not re.search(rf"`{name}\b", readme)]

    def test_every_export_is_reached_from_a_command_or_named_in_readme(self):
        readme = (REPO / "README.md").read_text()
        assert self._unreached_exports(SOURCES, ftconsensus._EXPORTS, readme) == []

    def test_an_uncalled_export_is_caught(self):
        sources = {**SOURCES, "graph.py": SOURCES["graph.py"] + "\n\ndef planted_export(g):\n    return g.n\n"}
        exports = dict(ftconsensus._EXPORTS, graph=[*ftconsensus._EXPORTS["graph"], "planted_export"])
        readme = (REPO / "README.md").read_text()
        assert self._unreached_exports(sources, exports, readme) == ["planted_export"]
        assert self._unreached_exports(sources, exports, readme + "\n`planted_export`\n") == []

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ftconsensus.no_such_name  # noqa: B018
        assert not hasattr(ftconsensus, "__wrapped__")

    @forbidden_rows
    def test_no_module_uses_a_forbidden_name(self, name, scope, reason):
        assert forbidden_uses(SOURCES, name, scope) == [], reason

    # lines that use NAME in each scope
    PLANTS = {"numpy": ["np.{}", "numpy.{}", "from numpy import {}", "import numpy.{}"],
              "attribute": ["x.{}()", "np.{}", "def planted():\n    from numpy import {}"],
              "import": ["def planted():\n    import {}", "from {} import x"],
              "import-time": ["import {}", "from {} import x"]}
    # lines that an import-time row skips, as they import in a function body
    IN_FUNCTIONS = ["def planted():\n    import {}",
                    "class Planted:\n    def method(self):\n        from {} import x"]
    # (line, reported) that import a module of the package by its relative name
    RELATIVE = [("from .{} import x", True), ("from . import {}", True),
                ("def planted():\n    from .{} import x", False)]

    @forbidden_rows
    def test_a_planted_forbidden_name_is_caught(self, name, scope, reason):
        # each row reports the lines of the uses appended to errors.py, a small cold-start
        # file, and none of the others
        plants = [(plant.format(name), True) for plant in self.PLANTS[scope]]
        if scope == "import-time":
            plants += [(plant.format(name), False) for plant in self.IN_FUNCTIONS]
        if name.startswith("ftconsensus."):
            module = name.removeprefix("ftconsensus.")
            plants += [(plant.format(module), reported) for plant, reported in self.RELATIVE]
        source, lines = SOURCES["errors.py"], set()
        for plant, reported in plants:
            source += "\n" + plant
            if reported:
                lines.add(f"errors.py:{len(source.splitlines())}")
        uses = forbidden_uses({**SOURCES, "errors.py": source}, name, scope)
        assert {use.split()[0] for use in uses} == lines

    @staticmethod
    def _nodes(skip=None):
        """(file, node) for every node of every module of the package but ``skip``."""
        return [(file, node) for file, source in SOURCES.items() if file != skip
                for node in ast.walk(parsed(source))]

    def test_every_record_is_a_record(self):
        # one way to declare a record: a class with annotated fields subclasses _record.Record
        assert [f"{file}:{node.lineno} {node.name}" for file, node in self._nodes()
                if isinstance(node, ast.ClassDef) and any(isinstance(n, ast.AnnAssign) for n in node.body)
                and "Record" not in {getattr(b, "id", None) for b in node.bases}] == []

    def test_cli_imports_no_private_name(self):
        # a command's policy lives in the module that computes it; cli reads
        # public names only, so no rule is applied a second time there
        numeric = {"protocols", "analysis", "dynamics", "graph"}
        assert [f"cli.py:{node.lineno} {alias.name}" for node in ast.walk(parsed(SOURCES["cli.py"]))
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in numeric
                for alias in node.names if alias.name.startswith("_")] == []

    def test_only_graph_reads_the_weights(self):
        # a graph holds its Laplacian alone and g.weights rebuilds an n x n
        # array on each read; every other module reads laplacian(g)
        assert [f"{file}:{node.lineno}" for file, node in self._nodes(skip="graph.py")
                if isinstance(node, ast.Attribute) and node.attr == "weights"] == []

    def test_only_protocols_names_the_grid_or_the_normal_floor(self):
        # the ratio grid and the float range its bound needs are protocols' own:
        # a second module reading them would be a second scale check or grid
        private = {"_NORMAL", "_GRID_POINTS", "_GRID_DECADES", "_ratio_grid"}
        assert [f"{file}:{node.lineno}" for file, node in self._nodes(skip="protocols.py")
                if (isinstance(node, ast.Name) and node.id in private)
                or (isinstance(node, ast.Attribute) and node.attr in private)
                or (isinstance(node, ast.alias) and node.name in private)] == []

    def test_no_function_takes_a_grid(self):
        # the ratio bound is taken on one module grid, protocols._ratio_grid; a grid
        # parameter would be a second path to it that no command uses
        assert [f"{file}:{node.lineno} {node.name}" for file, node in self._nodes()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                and "grid" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}] == []

    def test_no_module_expands_the_frozen_tail(self):
        # a trajectory holds state rows only up to the freeze record: no module
        # may rebuild the tail as rows, by a repeating call, by joining the
        # states with more rows, or by indexing them with a computed index array
        repeaters = {"repeat", "tile", "broadcast_to", "resize"}
        joiners = {"pad", "concatenate", "stack", "vstack", "append", "insert"}

        def names(node):
            return {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
                    if isinstance(n, (ast.Attribute, ast.Name))}

        offenders = []
        for file, node in self._nodes():
            if isinstance(node, ast.Attribute) and node.attr in repeaters:
                offenders.append(f"{file}:{node.lineno} {node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in joiners and "states" in names(ast.List(node.args))):
                offenders.append(f"{file}:{node.lineno} {node.func.attr} of states")
            elif (isinstance(node, ast.Subscript) and "states" in names(node.value)
                  and any(isinstance(n, ast.Call) for n in ast.walk(node.slice))):
                offenders.append(f"{file}:{node.lineno} computed index into states")
        assert offenders == []

    SETUP_SCRIPT = """
import sys
bare = set(sys.modules)
import ftconsensus.cli
from ftconsensus.config import load_config
load_config(sys.argv[1])
steps = [sorted(set(sys.modules) - bare & set(sys.argv[2:]))]
try:
    ftconsensus.cli.main(["--help"])
except SystemExit as exc:
    steps.append([exc.code, "argparse" in sys.modules])
import json
print(json.dumps(steps))
"""

    def test_set_up_loads_no_slow_module(self):
        # the benchmark's set-up code (bench/run.py SETUP_CODE) adds none of them
        # to what a bare interpreter holds; the first command loads argparse
        steps, _ = self._run_fresh(self.SETUP_SCRIPT, FIG1_CFG, *SLOW_MODULES)
        assert steps == [[], [0, True]]
