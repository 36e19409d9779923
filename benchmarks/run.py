"""Benchmark for the oscent CLI and library.

    python3 benchmarks/run.py --workload area-law-chain --seed 2024 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all

Run from the repository root. ``--trace 0`` times the workload's CLI
command in this process and prints the end-to-end metrics; ``--trace 1``
runs the same operations untraced, traced and with one pool thread, and
prints the per-layer metrics. Every output is checked after timing. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS is pinned before numpy loads: the scan pool already runs one thread
# per core, so BLAS threads on top would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference"

SETUP_PROBES = 9
# The host's vCPUs slow down by up to half, independently, for seconds to
# minutes at a time (other tenants). Every timed step is bracketed by a fixed
# calibration kernel, and times are reported at the speed at which the kernel
# takes CALIBRATION_REF_S; the raw wall times are printed next to them.
CALIBRATION_REF_S = 0.0065
_CALIBRATION_MATRIX = np.add.outer(np.arange(120.0), np.arange(120.0)) % 7.0 + np.eye(120)
# Stop starting operations once the next one would likely overrun the
# budget, but always time at least this many.
MIN_OPS = 2
# Operations whose outputs are also recomputed independently.
RECOMPUTE_OPS = (0, -1)

# The probe reports ready once it could issue the first command, then times
# the calibration kernel on the vCPU it ran on.
_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import oscent.cli, workloads; "
    "workloads.write_config(workloads.WORKLOADS[{name!r}], 0, {path!r}); print('ready', flush=True); "
    "import run; print(run.calibration(), flush=True)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------------
# run record


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process and their live thread counts."""
    paths = set()
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "openblas" in Path(path).name.lower():
                    paths.add(path)
    except OSError:
        return [{"library": "unknown", "threads": "unknown"}]
    found = []
    for path in sorted(paths):
        entry = {"library": Path(path).name, "config": "unknown", "threads": "unknown"}
        lib = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        found.append(entry)
    return found or [{"library": "unknown", "threads": "unknown"}]


def run_record(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "pool_threads": nproc(),
        "blas": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


# ----------------------------------------------------------------------------
# measurement


def measure_setup(workload, path: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to ready for the first command,
    and the host slowdown the probe measured right after."""
    code = _PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=workload.name, path=str(path))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        kernel = proc.stdout.readline()
        proc.wait(timeout=120)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed, float(kernel) / CALIBRATION_REF_S


@dataclass
class Op:
    """One CLI command of the workload: its inputs and its output directory."""

    index: int
    seed: int
    config: dict
    argv: list[str]
    out: Path


def make_op(workload, seed: int, index: int, work: Path, tag: str, threads: int) -> Op:
    config_path = workloads.write_config(workload, index, work / f"config-{index}.json")
    out = work / f"{tag}-{index}"
    return Op(
        index=index,
        seed=workloads.op_seed(seed, index),
        config=workloads.op_config(workload, index),
        argv=workloads.op_argv(workload, seed, index, config_path, out, threads),
        out=out,
    )


def calibration() -> float:
    """Seconds for a fixed mix of interpreted Python and small LAPACK calls."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += abs(i - 3)
    for _ in range(5):
        np.linalg.eigh(_CALIBRATION_MATRIX)
    return time.perf_counter() - start


def calibrated(measure):
    """Run ``measure()`` between two calibration kernels.

    Returns its result and the host slowdown: the kernels' mean time over
    CALIBRATION_REF_S.
    """
    before = calibration()
    result = measure()
    after = calibration()
    return result, (before + after) / (2.0 * CALIBRATION_REF_S)


def run_op(main, argv) -> tuple[float, str | None]:
    """Wall seconds of one in-process CLI command, and why it failed, if it did."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = main(argv)
    except Exception:  # a crash in the command under test is a failed operation
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, f"{argv[0]} raised"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"{argv[0]} exited {code}"


@dataclass
class Pass:
    """Operations run back to back, with raw and speed-normalized wall times."""

    ops: list[Op]
    walls: list[float]
    normalized: list[float]
    errors: dict


def timed_ops(workload, seed: int, work: Path, budget: float, threads: int, count: int | None = None,
              wrap=None, between=None, tag: str = "op") -> Pass:
    """Run operations until ``budget`` seconds would be exceeded, or exactly ``count``.

    ``wrap`` gives a context manager to open around each command (the cli
    span); ``between(elapsed)`` runs untimed before each operation.
    """
    from oscent.cli import main

    run = Pass([], [], [], {})
    elapsed = 0.0
    index = 0
    while True:
        if count is not None and index >= count:
            break
        if count is None and index >= MIN_OPS and elapsed + statistics.median(run.walls) > budget:
            break
        if between:
            between(elapsed)
        op = make_op(workload, seed, index, work, tag, threads)
        with wrap() if wrap else contextlib.nullcontext():
            (wall, error), slowdown = calibrated(lambda: run_op(main, op.argv))
        run.ops.append(op)
        run.walls.append(wall)
        run.normalized.append(wall / slowdown)
        if error:
            run.errors[index] = [error]
        elapsed += wall
        index += 1
    return run


def check_ops(workload, seed: int, ops, errors: dict) -> dict:
    """Run the output checks; returns failures per operation index."""
    recompute = {ops[i].index for i in RECOMPUTE_OPS}
    for op in ops:
        if op.index in errors:
            continue
        reference = REFERENCE / workload.name if seed == workloads.DEFAULT_SEED and op.index == 0 else None
        failures = checks.check_op(workload.command, op.out, op.config, op.seed, op.index in recompute, reference)
        if failures:
            errors[op.index] = failures
    return errors


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------------
# workload runs


def untraced(workload, seed: int, seconds: float, work: Path):
    # Setup probes are spread over the run rather than bunched at its start.
    setup_raw, setup = [], []

    def probe_until(share: float):
        while len(setup) < SETUP_PROBES * min(share, 1.0):
            path = work / f"probe-{len(setup)}.json"
            wall, slowdown = measure_setup(workload, path)
            setup_raw.append(wall)
            setup.append(wall / slowdown)

    run = timed_ops(workload, seed, work, seconds, nproc(), between=lambda elapsed: probe_until(elapsed / seconds))
    probe_until(1.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = check_ops(workload, seed, run.ops, run.errors)
    latency = statistics.median(run.normalized)
    samples = len(run.walls)
    rows = [
        ("setup_s", statistics.median(setup), "s", len(setup), "lower"),
        ("command_s", latency, "s", samples, "lower"),
        ("realizations_per_s", workload.units / latency, "1/s", samples, "higher"),
        ("peak_rss_mb", peak_rss_mb, "MB", 1, "lower"),
    ]
    extra = [
        f"raw wall: setup median {statistics.median(setup_raw):.6g} s, command median "
        f"{statistics.median(run.walls):.6g} s over {samples} samples",
        f"host slowdown (raw / normalized command): {statistics.median(run.walls) / latency:.3f}",
    ]
    tail = tail_percentile(run.normalized)
    if tail:
        extra.append(f"command_s p{tail[0]} = {tail[1]:.6g} s")
    extra.append(f"failed_ratio = {len(errors)}/{samples}")
    return rows, extra, samples, errors


def traced(workload, seed: int, seconds: float, work: Path):
    """Untraced, traced and one-thread passes over the same operations."""
    threads = nproc()
    budget = seconds / 3.0
    plain = timed_ops(workload, seed, work, budget, threads, tag="untraced")
    count = len(plain.ops)
    recorder = tracing.Tracer(outcomes={"hamiltonian.validate_coupling": lambda r: r.is_positive_definite})
    span_name = "cli." + workload.command.replace("-", "_")
    recorder.install()
    try:
        traced_run = timed_ops(
            workload, seed, work, budget, threads, count=count, wrap=lambda: recorder.span(span_name), tag="traced"
        )
    finally:
        recorder.uninstall()
    serial = timed_ops(workload, seed, work, budget, 1, count=count, tag="serial")
    recorder.write(OUT / f"trace-{workload.name}-{seed}.jsonl")

    failures = {}
    for tag, run in (("untraced", plain), ("traced", traced_run), ("serial", serial)):
        for index, names in check_ops(workload, seed, run.ops, run.errors).items():
            failures[f"{tag}-{index}"] = names

    summary = tracing.summarize(recorder.spans)
    rows = []
    layer_ms = dict.fromkeys(tracing.LAYERS, 0.0)
    for name in tracing.span_names():
        calls, busy = summary.get(name, (0, 0.0))
        layer_ms[name.split(".")[0]] += busy * 1e3
        rows.append((f"{name}.calls", calls, "count", 1, "lower"))
        rows.append((f"{name}.self_ms", busy * 1e3, "ms", calls, "lower"))
    rows += [(f"{layer}.self_ms", value, "ms", 1, "lower") for layer, value in layer_ms.items()]
    checked = summary.get("hamiltonian.validate_coupling", (0, 0.0))[0]
    pd_ok = recorder.outcome_counts["hamiltonian.validate_coupling"]
    base = sum(plain.normalized)
    rows += [
        ("experiments.parallel_efficiency", sum(serial.normalized) / (threads * base), "ratio", count, "higher"),
        ("hamiltonian.pd_ok_ratio", pd_ok / checked if checked else 0.0, "ratio", checked, "higher"),
        ("trace.overhead_ratio", sum(traced_run.normalized) / base, "ratio", count, "lower"),
    ]
    extra = [
        f"passes: {count} operations each, {workload.units} region-realizations per operation",
        f"absent wrap targets: {', '.join(recorder.absent) or 'none'}",
        f"spans: {len(recorder.spans)} written to {OUT.name}/trace-{workload.name}-{seed}.jsonl",
    ]
    return rows, extra, 3 * count, failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measure = traced if trace else untraced
        rows, extra, attempted, failures = measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"run_record {json.dumps(run_record(name, seed), sort_keys=True)}")
    print(f"{'metric':<56} {'value':>14} {'unit':<6} {'samples':>7}  better")
    for metric, value, unit, samples, better in rows:
        print(f"{metric:<56} {value:>14.6g} {unit:<6} {samples:>7}  {better}")
    for line in extra:
        print(line)
    for index, names in sorted(failures.items(), key=str):
        print(f"FAILED op {index}: {'; '.join(names)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit} for metric, value, unit, _, _ in rows},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, so peak RSS is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.check_seed(args.seed)
    except ValueError as err:
        parser.error(str(err))
    if not (SRC / "oscent" / "__init__.py").is_file():
        print(f"error: no oscent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
