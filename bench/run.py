"""fracstar benchmark.

    python3 bench/run.py --workload graph-forward --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  Each timed op is one real CLI call,
``python -m fracstar.cli --output-dir <fresh dir> <command> problem.ini``, in a
fresh child process: a closed loop with one client, so one op runs at a time
and every op pays what a CLI user pays.  Between ops an import-only child
measures set-up time and a ``bench/calibrate.py`` child times fixed reference
work, so each op is bracketed by two calibrations; ``wall_s`` and ``setup_s``
are the raw times scaled by them (see ``CAL_REF_S``).  Every op's outputs are
checked; after the timed loop a down-sized copy of the workload is checked
against the dense oracle and finite differences, which count as two more ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced ops with ops run under ``bench/spans.py`` and prints the per-layer
metrics.  The last line of standard output is one JSON object; the run record
(machine, versions, samples, checks) and, when traced, all spans go to
``.bench_out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import spans as spanlib
from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# One BLAS thread: the matrices are small enough that a second thread adds
# more run-to-run noise than speed on a shared two-core machine.
BLAS_THREADS = 1
# The host's speed drifts by up to ~1.6x over tens of seconds (other tenants),
# which moves a run's median raw wall time by more than any useful bound.
# ``wall_s`` scales each op's raw wall time by CAL_REF_S over the mean of the
# two calibrations around it, and ``setup_s`` scales each import child's by
# CAL_REF_S over the calibration that follows it: the times on a host where
# ``bench/calibrate.py`` takes CAL_REF_S, about its median on a two-vCPU
# Intel Xeon host.
CALIBRATE = BENCH / "calibrate.py"
CAL_REF_S = 0.6
MIN_OPS = 3
# Every run ends well inside 180 s, even when an op hangs.
RUN_DEADLINE_S = 170.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
# Printed beside them: the raw times and the calibration they are scaled by.
REPORTED = [*END_TO_END, ("wall_raw_s", "s"), ("setup_raw_s", "s"), ("calib_s", "s")]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[float, int, float]:
    """Run one child process, killed at the ``time.monotonic`` deadline;
    return its wall time from spawn to exit, exit code and peak RSS in MB."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=fh, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run(
    wl, seed: int, seconds: float, trace: bool, out_root: Path = OUT, min_ops: int = MIN_OPS
) -> dict:
    """Measure one workload for about ``seconds``, and for at least
    ``min_ops`` loop iterations; return the run record."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    run_dir = out_root / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    problem = write_inputs(wl, seed, run_dir / "inputs")
    bytes_read = _dir_bytes(problem.parent)
    py = sys.executable
    import_argv = [py, "-c", "import fracstar.cli"]

    # Untimed warm-up: byte-compiles the package and fills the file cache.
    spawn(import_argv, run_dir / "warmup.log", deadline)

    samples = {"wall_raw_s": [], "setup_raw_s": [], "calib_s": [], "peak_rss_mb": [],
               "traced_wall_s": []}
    failures: list[str] = []
    props: list[dict] = []
    layer_ops: list[dict] = []
    all_spans: list[list] = []
    missing: set[str] = set()
    # (index of the nearest calibration, raw time) of each untraced op, whose
    # calibration ran just before it, and of each import child, whose
    # calibration ran just after it.
    op_walls: list[tuple[int, float]] = []
    setup_walls: list[tuple[int, float]] = []
    attempted = failed = 0

    def one_op(k: int, traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        out = run_dir / f"op{k}"
        cli = ["--output-dir", str(out), wl.command, str(problem)]
        if traced:
            spans_file = run_dir / f"op{k}.spans.json"
            argv = [py, str(BENCH / "spans.py"), str(spans_file), str(k), "--", *cli]
        else:
            argv = [py, "-m", "fracstar.cli", *cli]
        wall, rc, rss = spawn(argv, run_dir / f"op{k}.log", deadline)
        problems, found = checks.check_outputs(wl, out) if rc == 0 else ([f"exit code {rc}"], {})
        if problems:
            failed += 1
            failures.extend(f"op{k}: {p}" for p in problems)
        else:
            found["bytes_written"] = _dir_bytes(out)
            props.append(found)
        if traced:
            samples["traced_wall_s"].append(wall)
            try:
                dump = json.loads(spans_file.read_text())
                spans_file.unlink()
            except (OSError, ValueError) as exc:
                failed += not problems
                failures.append(f"op{k}: no spans ({exc})")
            else:
                missing.update(dump["missing"])
                all_spans.extend(dump["spans"])
                layer = spanlib.op_metrics(dump["spans"])
                layer["cli.bytes_read"] = bytes_read
                layer["cli.bytes_written"] = found.get("bytes_written", 0)
                layer["control.active_frac"] = found.get("active_frac", 0.0)
                layer_ops.append(layer)
        else:
            samples["wall_raw_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            op_walls.append((len(samples["calib_s"]) - 1, wall))
        shutil.rmtree(out, ignore_errors=True)

    def calibrate() -> None:
        wall, rc, _ = spawn([py, str(CALIBRATE)], run_dir / "calibrate.log", deadline)
        if rc != 0:
            raise RuntimeError(f"bench/calibrate.py exited with {rc}")
        samples["calib_s"].append(wall)

    loop_start = time.perf_counter()
    for i in itertools.count():
        t_iter = time.perf_counter()
        wall, rc, _ = spawn(import_argv, run_dir / "import.log", deadline)
        if rc == 0:
            samples["setup_raw_s"].append(wall)
            setup_walls.append((len(samples["calib_s"]), wall))
        calibrate()
        one_op(2 * i if trace else i, traced=False)
        if trace:
            one_op(2 * i + 1, traced=True)
        now = time.perf_counter()
        # Stop before an iteration as long as the last would overrun.
        enough = i + 1 >= min_ops and (now - loop_start) + (now - t_iter) > seconds
        if enough or failed == attempted or time.monotonic() - started > RUN_DEADLINE_S / 2:
            break
    calibrate()
    cal = samples["calib_s"]
    samples["wall_s"] = [wall * CAL_REF_S / (0.5 * (cal[k] + cal[k + 1])) for k, wall in op_walls]
    samples["setup_s"] = [wall * CAL_REF_S / cal[k] for k, wall in setup_walls]

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        oracle = checks.oracle_checks(wl, seed)
    except Exception as exc:  # any exception here is a failed check
        oracle = [("oracle-checks", False, f"{type(exc).__name__}: {exc}")]
    for name, ok, detail in oracle:
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"{name}: {detail}")

    def med(values):
        # 0 only when every op failed, so the result is already incorrect.
        return statistics.median(values) if values else 0.0

    end_to_end = {name: med(samples[name]) for name, _ in REPORTED}
    per_layer: dict[str, float] = {}
    repeats = None
    if trace:
        repeats = True
        for name, _ in spanlib.PER_LAYER[:-1]:
            values = [op[name] for op in layer_ops]
            if name in spanlib.COUNTS:
                per_layer[name] = statistics.median_low(values) if values else 0
                repeats = repeats and len(set(values)) <= 1
            else:
                per_layer[name] = med(values)
        per_layer["trace.overhead_frac"] = (
            med(samples["traced_wall_s"]) / med(samples["wall_raw_s"]) - 1.0
            if samples["traced_wall_s"] and samples["wall_raw_s"] else 0.0
        )
        with open(run_dir / "spans.json", "w") as fh:
            fh.write(json.dumps({"fields": ["op", "name", "start", "end", "parent", "attrs"],
                                 "spans": all_spans}))

    first = props[0] if props else {}
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(seed),
        "properties": {
            "dofs": wl.ndof,
            "multipliers": wl.m_split,
            "time_steps": wl.nt,
            "bytes_read": bytes_read,
            "bytes_written": first.get("bytes_written"),
            "iterations": first.get("iterations"),
            "active_frac": first.get("active_frac"),
        },
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in oracle],
        "samples": samples,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_missing": sorted(missing),
        "counts_repeat": repeats,
        "elapsed_s": time.monotonic() - started,
    }
    with open(run_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record: dict) -> None:
    samples = record["samples"]
    attempted, failed = record["attempted"], record["failed"]
    m, p = record["machine"], record["properties"]
    print(f"workload {record['workload']}  seed {m['seed']}  trace {int(record['trace'])}"
          f"  ({record['why']})")
    print(f"  machine: {m['nproc']} x {m['cpu']}, Python {m['python']}, numpy {m['numpy']},"
          f" scipy {m['scipy']}, {m['blas']} ({m['blas_threads']} thread),"
          f" commit {m['git_commit']}, src sha256 {m['src_sha256'][:12]}")
    print("  workload: " + ", ".join(f"{k} {v}" for k, v in p.items()))
    print(f"  {'failed_frac':24s} {failed / attempted:12.6g} ratio   "
          f"({failed} of {attempted} ops)")
    for name, unit in REPORTED:
        print(f"  {name:24s} {record['end_to_end'][name]:12.6g} {unit:6s}  "
              f"median of {len(samples[name])}")
    units = dict(spanlib.PER_LAYER)
    for name, value in record["per_layer"].items():
        print(f"  {name:24s} {value:12.6g} {units[name]}")
    if record["counts_repeat"] is False:
        print("  WARNING: traced counts differ between ops on the same inputs")
    if record["trace_missing"]:
        print("  WARNING: bindings not found, their layers report zero calls: "
              + ", ".join(record["trace_missing"]))
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracstar" / "cli.py").is_file():
        print(f"no fracstar sources under {SRC}", file=sys.stderr)
        return 2

    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(record)
    names = spanlib.PER_LAYER if args.trace else END_TO_END
    values = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
