"""Regenerate ``reference/``: operation 0 of every workload at the default seed.

    python3 benchmarks/make_reference.py

Run it only on a commit whose outputs are trusted. ``reference/meta.json``
is the run record (commit, versions, BLAS threads) the files came from. The
checker compares operation 0 against these files whenever a run uses the
default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS before numpy loads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def make_reference() -> None:
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        work = Path(tmp)
        for name, workload in workloads.WORKLOADS.items():
            done = run.timed_ops(workload, workloads.DEFAULT_SEED, work, 0.0, run.nproc(), count=1)
            if done.errors:
                raise SystemExit(f"{name}: {done.errors}")
            target = run.REFERENCE / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file in checks.REFERENCE_FILES[workload.command]:
                shutil.copyfile(done.ops[0].out / file, target / file)
            print(f"{name}: {', '.join(checks.REFERENCE_FILES[workload.command])}")
    record = run.run_record("reference", workloads.DEFAULT_SEED)
    (run.REFERENCE / "meta.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    make_reference()
