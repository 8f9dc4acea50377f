"""Self-tests of the benchmark itself, on tiny inputs.

Each tiny run of each workload must print every metric BENCHMARK.json names,
with its unit; an answer corrupted by the harness must lower
``success_rate``; without the program's source the command must fail
without printing a result; no process the command starts may outlive it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("strings-serve", "ints-analytic", "tenant-churn")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(*arguments, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed


def _tiny(workload, trace, *extra):
    completed = _run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, kind):
    text, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.split()[:1] == [name] for line in text), name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_injected_wrong_answer_lowers_success_rate():
    _, result = _tiny("ints-analytic", 0, "--inject-wrong", "3")
    assert result["correct"] is False
    assert result["failed"] == 3
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = _run(
        "--workload", "strings-serve", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def _session_members(session):
    """Pids of every process, zombies included, in the given session."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_the_run(trace):
    process = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload",
            "strings-serve", "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        ],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr
    assert _session_members(process.pid) == []
