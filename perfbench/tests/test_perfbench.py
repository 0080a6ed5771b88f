"""Fast tests of the benchmark: every workload at a tiny size, the output
checks, the teardown checks, and the contract of ``BENCHMARK.json``.

    python -m pytest perfbench/tests -q

Each workload runs in its own interpreter, as the benchmark command does.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def _run(args, cwd=ROOT, code=None):
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "perfbench/run.py"]
    return subprocess.run(
        cmd + list(args), cwd=cwd, env=ENV, capture_output=True, text=True, timeout=170
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.6", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["error_frac"]["value"] == 0


def _run_patched(patch: str, workload: str):
    """Run ``workload`` with ``patch`` (code that breaks one thing) applied
    to the benchmark's modules first."""
    code = (
        "import sys\n"
        "sys.path[:0] = ['.', 'src']\n"
        "from perfbench import run, workloads\n"
        + textwrap.dedent(patch)
        + "\nsys.exit(run.main(sys.argv[1:]))\n"
    )
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0.5"], code=code)
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "teardown" not in proc.stderr
    return proc


def test_wrong_served_values_fail_the_run():
    # A balancer that sends its excess token to the bottom wire breaks the
    # step property, so the service raises ExactlyOnceError on most batches.
    proc = _run_patched(
        """
        from repro.search.registry import comparator_network
        workloads.k_network = lambda factors: comparator_network(4, [(3, 0)], name="upside-down")
        """,
        "serve_open",
    )
    assert "ExactlyOnceError" in proc.stderr


# One wrong row in the first output of each semantics: a count row rotated
# (no longer a step), a sort row reversed (ascending), a token row off by one.
CORRUPT = {"count": "np.roll(out[0], 1)", "sort": "out[0][::-1]", "token": "out[0] + 1"}


@pytest.mark.parametrize("sem", sorted(CORRUPT))
def test_a_wrong_batch_row_fails_the_run(sem):
    proc = _run_patched(
        f"""
        import numpy as np
        real = dict(workloads.EVALUATORS)[{sem!r}]
        def wrong(net, x):
            out = real(net, x).copy()
            out[0] = {CORRUPT[sem]}
            return out
        workloads.EVALUATORS = tuple(
            (s, wrong if s == {sem!r} else f) for s, f in workloads.EVALUATORS
        )
        """,
        "batch_eval",
    )
    assert re.search(rf"{sem}: [1-9][0-9]* of \d+ rows wrong", proc.stderr), proc.stderr


def test_an_output_that_changes_between_calls_fails_the_run():
    # Right on the checked first call of each of the 6 batches, wrong after.
    proc = _run_patched(
        """
        real = dict(workloads.EVALUATORS)["count"]
        calls = [0]
        def drifting(net, x):
            calls[0] += 1
            out = real(net, x).copy()
            if calls[0] > 6:
                out[0, 0] += 1
            return out
        workloads.EVALUATORS = tuple(
            (s, drifting if s == "count" else f) for s, f in workloads.EVALUATORS
        )
        """,
        "batch_eval",
    )
    assert "output changed between calls" in proc.stderr
    assert "rows wrong" not in proc.stderr


def test_a_duplicated_served_value_fails_the_audit():
    proc = _run_patched(
        """
        class Repeating(workloads.CountingService):
            async def fetch_and_increment(self, **kwargs):
                value = await super().fetch_and_increment(**kwargs)
                return 4 if value == 5 else value
        workloads.CountingService = Repeating
        """,
        "serve_open",
    )
    assert "exactly-once audit failed" in proc.stderr
    assert "1 duplicates" in proc.stderr


def test_a_short_wal_fails_the_run():
    proc = _run_patched(
        """
        from types import SimpleNamespace
        real = workloads.TokenWAL
        class ShortWAL:
            @staticmethod
            def replay(path):
                return SimpleNamespace(total=real.replay(path).total - 1)
        workloads.TokenWAL = ShortWAL
        """,
        "serve_durable",
    )
    assert "WAL replays" in proc.stderr


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run(["--workload", "batch_eval", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_leak_check_sees_a_listening_socket_and_a_thread():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import probes

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        s.listen()
        assert any("listening" in leak for leak in probes.leaks())
    assert not any("listening" in leak for leak in probes.leaks())

    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert any("threads" in leak for leak in probes.leaks())
    finally:
        stop.set()
        worker.join(timeout=5)
    assert not worker.is_alive()
