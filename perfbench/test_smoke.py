"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run prints every metric by name with its unit, that the
names are well formed and match BENCHMARK.json, that the negative control
(a deliberately perturbed output) fails every call, and that the benchmark
refuses to run, printing no result, where there are no cwkit sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--tiny", "--seconds", "0.5", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=175)
    return proc.returncode, proc.stdout.splitlines()


def printed(lines, name, unit):
    return any(re.match(rf"  {re.escape(name)} +\S+ +{re.escape(unit)} ", line)
               for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    code, lines = bench("--workload", name, "--trace", str(trace))
    result = json.loads(lines[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    shown = wanted if trace else {**wanted, **run.OUTCOMES}
    for key, unit in shown.items():
        assert NAME.fullmatch(key)
        assert printed(lines[:-1], key, unit), key


@pytest.mark.parametrize("name", ["h1-gauss-d3", "cli-sample-w1-d2"])
def test_negative_control_fails_every_call(name):
    code, lines = bench("--workload", name, "--perturb")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(re.match(r"  failed_frac +1 ", line) for line in lines)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_cwkit_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "h1-gauss-d3", cwd=bare,
                            script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert lines == []
