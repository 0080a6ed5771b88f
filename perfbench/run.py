"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload and the metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The exit code is nonzero when any output was wrong or the workload left a
thread, child process, listening socket or asyncio task behind.  See
``perfbench/README.md`` for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # One thread only: the teardown check counts threads, and a BLAS pool
    # would also add noise.  Observability stays off so spans cost nothing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_OBS"] = "0"
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp"))
    os.environ["REPRO_CACHE_DIR"] = str(tmp_dir / "cache")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        return _run(args, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            tmp_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, tmp_dir: Path) -> int:
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import probes, report
    from perfbench.workloads import WORKLOADS

    e2e_units, layer_units = _metric_units()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def run(seconds: float, trace, name: str):
        res = WORKLOADS[args.workload](args.seed, seconds, trace, tmp_dir / name)
        for leak in probes.leaks():
            res.fail(1, f"teardown: {leak}")
        return res

    notes: dict[str, str] = {}
    if args.trace:
        # The untraced half is the baseline for the tracing overhead.
        base = run(args.seconds / 2, None, "base")
        trace = probes.Trace()
        res = run(args.seconds / 2, trace, "traced")
        units, runs = layer_units, [base, res]
        values = dict.fromkeys(units, 0.0)
        values.update(report.per_layer(base, res, trace))
    else:
        res = run(args.seconds, None, "run")
        units, runs = e2e_units, [res]
        values, notes = report.end_to_end(res)
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")

    problems = [p for r in runs for p in r.problems]
    failed = sum(r.failed for r in runs)
    attempted = max(sum(r.attempted for r in runs), 1)
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {values[name]:14.6g} {unit}{note}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
