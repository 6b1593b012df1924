"""Record bench/golden.json: each job's exit code, payload digest (timing
fields left out) and counts, from the library as it stands.

    python3 bench/record_golden.py

Run it only on a commit whose answers are known to be right; the benchmark
then fails any later commit whose answers differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    golden = {}
    workloads.OUT_DIR.mkdir(exist_ok=True)
    for name, make in workloads.WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=workloads.OUT_DIR))
        state: dict = {}
        try:
            for unit in make():
                for job in unit:
                    golden[job.name] = job.outcome(job.run(workdir, state))
                    print(f"{name}: {job.name}: {golden[job.name]['counts']}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
