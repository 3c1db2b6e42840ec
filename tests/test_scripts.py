"""The A/B scripts under ``scripts/``: the summary logic of ``bench_pairs.py``
(pure functions, no git and no subprocess), its clean-up on SIGTERM, and a
smoke test of each script."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"

_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}


def side(value, ok=True, setup=(0.05,) * 8):
    return {"ok": ok, "rows": {"peak_rss_mb": value, "cycle_s": 2.0 * value}, "setup_samples": list(setup)}


def pairs_of(base: list, change: list, ok=None) -> list:
    ok = ok or [True] * len(base)
    return [{"base": side(b), "change": side(c, k)} for b, c, k in zip(base, change, ok)]


def test_quartiles():
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                                                "iqr": 2.0}
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "iqr": 0.5}


def test_a_run_that_is_not_ok_is_no_win():
    base = [36.0 + 0.01 * i for i in range(10)]
    change = [b - 1.0 for b in base]
    s = bench_pairs.summarise(pairs_of(base, change), [RSS])["peak_rss_mb"]
    assert (s["change_wins"], s["claim_rule_met"]) == (10, True)
    s = bench_pairs.summarise(pairs_of(base, change, [False] + [True] * 9), [RSS])["peak_rss_mb"]
    assert (s["change_wins"], s["pairs"]) == (9, 10)
    s = bench_pairs.summarise(pairs_of(base, change, [False, False] + [True] * 8), [RSS])["peak_rss_mb"]
    assert (s["change_wins"], s["claim_rule_met"]) == (8, False)


def test_pooled_setup_samples():
    pairs = [{"base": side(1.0, setup=[0.01 * k for k in range(1, 9)]),
              "change": side(1.0, setup=[0.02 * k for k in range(1, 9)])} for _ in range(10)]
    pooled = bench_pairs.pooled_setup(pairs)
    assert pooled["base"]["n"] == pooled["change"]["n"] == 80
    assert pooled["base"]["median"] == pytest.approx(0.045)
    assert pooled["change"]["median"] == pytest.approx(0.09)


def test_seven_of_ten_wins_with_a_lower_median_does_not_meet_the_claim_rule():
    # a tight parent, a change lower in the median but lower in only 7 pairs
    base = [36.36 + 0.001 * i for i in range(10)]
    change = [b - 0.25 for b in base[:7]] + [b + 0.01 for b in base[7:]]
    s = bench_pairs.summarise(pairs_of(base, change), [RSS])["peak_rss_mb"]
    assert s["change"]["median"] < s["base"]["median"] - s["base"]["iqr"]
    assert (s["change_wins"], s["claim_rule_met"], s["within_bound"]) == (7, False, True)


def test_an_iqr_wider_than_the_bound():
    # the change wins every pair by less than the parent's spread: no claim,
    # and the bound (a fraction of the base median) judges the medians alone
    base = [30.0, 32.0, 34.0, 36.0, 38.0, 40.0, 42.0, 44.0, 46.0, 48.0]
    s = bench_pairs.summarise(pairs_of(base, [b - 1.0 for b in base]), [RSS])["peak_rss_mb"]
    assert s["base"]["iqr"] > RSS["bound"] * s["base"]["median"]
    assert (s["change_wins"], s["claim_rule_met"], s["within_bound"]) == (10, False, True)
    s = bench_pairs.summarise(pairs_of(base, [b + 3.8 for b in base]), [RSS])["peak_rss_mb"]
    assert (s["change_wins"], s["within_bound"]) == (0, True)
    s = bench_pairs.summarise(pairs_of(base, [b + 4.0 for b in base]), [RSS])["peak_rss_mb"]
    assert s["within_bound"] is False


def test_higher_is_better_and_ungated_rows():
    metric = {"name": "peak_rss_mb", "unit": "MB", "better": "higher"}
    base = [36.0 + 0.01 * i for i in range(10)]
    s = bench_pairs.summarise(pairs_of(base, [b + 1.0 for b in base]), [metric])["peak_rss_mb"]
    assert (s["change_wins"], s["claim_rule_met"], s["within_bound"]) == (10, True, None)
    w = bench_pairs.summarise_workload(pairs_of(base, base), [RSS], {"cycle_s": "s", "peak_rss_mb": "MB"})
    assert list(w["summary"]) == ["peak_rss_mb"] and list(w["ungated"]) == ["cycle_s"]
    assert w["ungated"]["cycle_s"]["unit"] == "s" and w["ungated"]["cycle_s"]["change_wins"] == 0


def test_compare_digests():
    base = "simulate a\tstdout\t01\nsimulate a\texit\t0\ncertify b\tout/c.json\tff\n"
    change = "simulate a\tstdout\t01\nsimulate a\texit\t1\ncertify c\tout/c.json\tff\n"
    assert bench_pairs.compare_digests(base, change) == {"equal": 1, "differ": [
        {"item": "certify b\tout/c.json", "base": "ff", "change": None},
        {"item": "certify c\tout/c.json", "base": None, "change": "ff"},
        {"item": "simulate a\texit", "base": "0", "change": "1"}]}


def test_sigterm_removes_the_unpacked_trees(tmp_path):
    # the signal comes while a tree runs its first command, after both are unpacked
    script = f"""
import importlib.util, os, signal, sys
spec = importlib.util.spec_from_file_location("bench_pairs", {str(SCRIPTS / "bench_pairs.py")!r})
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
def run(checkout, *_):
    print(checkout.is_dir(), flush=True)
    os.kill(os.getpid(), signal.SIGTERM)
bench_pairs.run = run
sys.exit(bench_pairs.main(["--base", "HEAD", "--workload", "fig1-paper", "--seeds", "1", "2",
                           "--out", {str(tmp_path / "out.json")!r}]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, TMPDIR=str(tmp_path)),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (143, "True\n"), proc.stderr
    assert not list(tmp_path.glob("bench_pairs_*"))


def module_constant(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


@pytest.mark.parametrize("script", ["bench_pairs.py", "rss_by_mapping.py", "output_digests.py"])
def test_script_help_and_pinned_threads(script):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.startswith("usage:"), proc.stderr
    if script != "bench_pairs.py":
        # each keeps its own copy of the benchmark's thread pins
        assert (module_constant(SCRIPTS / script, "PINNED_THREADS")
                == module_constant(REPO / "bench" / "run.py", "PINNED_THREADS"))
