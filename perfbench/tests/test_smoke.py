"""Smoke-size runs of every workload, and the command's contract.

Each run drives the real program at tiny sizes and must pass every
correctness, composition and validity check.  Run from the checkout
root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in ledger.LAYERS]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_every_check(workload):
    result = _result(_run("--workload", workload, "--seed", "3",
                          "--seconds", "3", "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_writes_trace_and_ledger(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "3",
                "--trace", "1", "--smoke")
    result = _result(proc)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    stem = BENCH / "out" / "traces" / f"{workload}-seed3-smoke"
    trace = json.loads(Path(f"{stem}.trace.json").read_text())
    assert trace["traceEvents"]
    ledger_text = Path(f"{stem}.ledger.md").read_text()
    for layer in ledger.LAYERS:
        assert f"`{layer.name}`" in ledger_text
    if workload == "solve-large":
        assert "span self times cover" in proc.stdout
    else:
        assert "latency = lateness + queue wait + exec + unattributed" \
            in ledger_text


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "serve-shared", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")


# Runs the benchmark as a child of a subreaper: every process the
# benchmark leaves behind when it exits is reparented to the wrapper,
# which prints how many it found and reaps them.
_ORPHAN_WRAPPER = r"""
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
proc = subprocess.run(sys.argv[1:], capture_output=True)
orphans = []
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{entry}/stat") as fh:
            if int(fh.read().rsplit(")", 1)[1].split()[1]) == os.getpid():
                orphans.append(int(entry))
    except OSError:
        pass
for pid in orphans:
    os.waitpid(pid, 0)
print(proc.returncode, len(orphans))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs /proc and PR_SET_CHILD_SUBREAPER")
def test_serve_run_leaves_no_process_behind():
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHAN_WRAPPER, sys.executable,
         str(BENCH / "run.py"), "--workload", "serve-shared", "--seed", "3",
         "--seconds", "3", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.stdout.split() == ["0", "0"], proc.stdout + proc.stderr
