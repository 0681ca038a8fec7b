"""Smoke test of the benchmark itself, at a toy size.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs untraced and traced.  The test checks that each
metric of BENCHMARK.json is printed with its unit, that every span of a
traced run lies inside its parent, that a recorded digest is matched by
a second run, and that a wrong digest makes the run fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload, trace, golden=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def write_golden(workload, digest):
    sys.path.insert(0, str(BENCH))
    import run
    path = ROOT / ".bench_work" / f"golden-{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "seed": SEED, "platform": run.golden_platform(run.environment()),
        "digests": {"tiny": {workload: digest}}}))
    return path


def digest_of(lines):
    return next(ln.split()[1] for ln in lines if ln.startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(ln.startswith("metric failed_frac 0.0 fraction") for ln in lines)

    golden = write_golden(workload, digest_of(lines))
    lines, result = run_bench(workload, 0, golden)
    assert "golden: match" in lines and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_nested_spans(workload):
    lines, result = run_bench(workload, 1)
    assert result["correct"]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "cli":  # traced commands start cold
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["cli.import_s"] > values["cli.interp_s"] > 0
    dump = json.loads((ROOT / ".bench_out" / f"spans-{workload}-tiny-seed{SEED}.json")
                      .read_text())
    spans = dump["spans"]
    assert any(s[0].startswith("op.") for s in spans)
    for name, start, end, parent, *_ in spans:
        assert start <= end, name
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_digest_fails_the_run(workload):
    golden = write_golden(workload, "0" * 64)
    lines, result = run_bench(workload, 0, golden)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(ln.startswith("problem: digest mismatch") for ln in lines)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
