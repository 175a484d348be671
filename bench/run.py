"""Benchmark runner for jordanblocks.

    python3 bench/run.py --workload sweep|oracle_large|rules_table \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and runs single-threaded.  A unit runs every part of the
workload once; units repeat until ``--seconds`` are used (at least three)
and every unit's outputs are verified outside the timed part.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:
``wall_s`` (sum of the parts' median times), ``setup_s`` (median over
fresh processes), ``peak_rss_mb`` and ``verified_frac``.  With
``--trace 1`` half the time runs untraced and half traced, and the metrics
are the per-layer ones of ``tracing.py`` plus the tracing overhead.  The
line before it is a JSON record of the environment, the raw times and the
failure accounting.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_UNITS = 3
# set-up probes after each unit, so that they sample the whole run
SETUP_PROBES_PER_UNIT = 2
# the benchmark is single-threaded: sweep threads=1 and one BLAS thread
BLAS_THREADS = "1"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the inputs, print 'ready' and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def _import_program():
    """Import the checkout's ``jordanblocks``; never an installed copy."""
    if not (SRC / "jordanblocks" / "__init__.py").is_file():
        raise SystemExit(f"error: no jordanblocks sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import jordanblocks

    if Path(jordanblocks.__file__).resolve().parent != SRC / "jordanblocks":
        raise SystemExit(f"error: imported jordanblocks from {jordanblocks.__file__}")
    import workloads

    return workloads


def _time_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the inputs are ready, per fresh process."""
    times = []
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES_PER_UNIT):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(ready)
    return times


class Tally:
    """Cases attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def _run_parts(wl, times: list[list[float]]) -> list:
    """Run every part once, appending each part's seconds to ``times``.

    A part that raises yields its exception as its output.
    """
    wl.start_unit()
    outcomes = []
    for part, part_times in zip(wl.parts, times):
        start = time.perf_counter()
        try:
            out = part.run()
        except Exception as exc:  # a raising part is a failed part, reported
            out = exc
            print(f"{part.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        part_times.append(time.perf_counter() - start)
        outcomes.append(out)
    return outcomes


def _verify(wl, outcomes: list, tally: Tally) -> None:
    for part, out in zip(wl.parts, outcomes):
        if isinstance(out, Exception):
            tally.add((part.planned, part.planned))
        else:
            tally.add(part.verify(out))


def _run_units(wl, seconds: float, min_units: int, tally: Tally, wrap=None, after_unit=None):
    """Repeat units while the budget allows; per part, the list of its times.

    ``wrap(fn)``, if given, runs each unit's ``fn`` (used to trace it).
    Verification and ``after_unit()`` run after each unit, outside timing
    and tracing; neither counts against ``seconds``.  Also returns the peak
    memory in MB after the first unit: every part has run once by then, and
    later units only add heap fragmentation.
    """
    times: list[list[float]] = [[] for _ in wl.parts]
    spent: list[float] = []
    peak_mb = 0.0
    while len(spent) < min_units or sum(spent) + statistics.median(spent) <= seconds:
        outcomes = wrap(lambda: _run_parts(wl, times)) if wrap else _run_parts(wl, times)
        spent.append(sum(t[-1] for t in times))
        _verify(wl, outcomes, tally)
        if after_unit:
            after_unit()
        if len(spent) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return times, peak_mb


def _wall(times: list[list[float]]) -> float:
    """Time for the whole workload: the sum of the parts' median times."""
    return sum(statistics.median(t) for t in times)


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "sweep_threads": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(wl, args, tally: Tally, report: dict) -> dict:
    setup: list[float] = []

    def probe():
        setup.extend(_time_setup(args.workload, args.seed))

    times, peak_mb = _run_units(wl, args.seconds, MIN_UNITS, tally, after_unit=probe)
    tally.add(wl.final_check())
    report.update(part_times=dict(zip((p.name for p in wl.parts), times)), setup_s=setup)
    verified = (tally.attempted - tally.failed) / max(1, tally.attempted)
    return {
        "wall_s": _metric(_wall(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "verified_frac": _metric(verified, "ratio"),
    }


_UNITS = {"_s": "s", "_frac": "ratio", "_ratio": "ratio"}


def _per_layer(wl, args, tally: Tally, report: dict) -> dict:
    import tracing

    unit_metrics: list[dict] = []

    def trace_unit(run):
        out, metrics = tracing.traced_call(run)
        unit_metrics.append(metrics)
        return out

    plain, _ = _run_units(wl, args.seconds / 2, 1, tally)
    traced, _ = _run_units(wl, args.seconds / 2, 1, tally, wrap=trace_unit)
    tally.add(wl.final_check())
    plain_s, traced_s = _wall(plain), _wall(traced)
    repeats = all(
        m[name] == unit_metrics[0][name] for m in unit_metrics for name in tracing.EXACT
    )
    report.update(traced_units=len(unit_metrics), exact_counts_repeat=repeats)
    metrics = {}
    for name in unit_metrics[0]:
        value = statistics.median_low(m[name] for m in unit_metrics)
        unit = next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = _metric(value, unit)
    metrics["trace.untraced_wall_s"] = _metric(plain_s, "s")
    metrics["trace.traced_wall_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_program()
    wl = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    tally = Tally()
    report = {"env": _environment(args)}
    if args.trace:
        metrics = _per_layer(wl, args, tally, report)
    else:
        metrics = _end_to_end(wl, args, tally, report)
    attempted = max(1, tally.attempted)
    failed = tally.failed if tally.attempted else attempted
    report["failed_frac"] = {"value": failed / attempted, "failed": failed, "base": attempted}
    print(json.dumps(report, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
