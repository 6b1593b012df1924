"""The linkset benchmark: time to a correct, certified answer.

One workload, in its own process (the form the benchmark harness calls):

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

runs the workload's job list in passes, a closed loop of one client and one
job at a time, until ``--seconds`` have passed (at least one pass); the seed
shuffles the job order of each pass.  Every answer is checked against
``bench/golden.json``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones from ``tracer.py``.  A
run record (machine, per-job times, failures) goes to ``.bench_out/``.
The exit code is 1 when any answer was wrong.

End-to-end metrics, each the median over the run's passes:

  wall_s         the pass's jobs, summed, in reference seconds
  slowest_job_s  the longest job of a pass, in reference seconds
  setup_s        median over SETUP_SAMPLES fresh processes of the time from
                 process start to ready (import, job list, goldens, one
                 warm-up call), in reference seconds
  peak_rss_mib   peak resident memory of the run's process (ru_maxrss)

A reference second is a wall second scaled by how fast the host ran a fixed
reference kernel meanwhile (see ``hostspeed.py``); on a shared machine raw
wall times of one workload moved by a third between runs.  Raw wall seconds
are kept in the run record next to the reference ones.  ``failed_frac`` is
``failed / attempted``.

All workloads, each in fresh processes, with run-to-run spread:

    python3 bench/run.py --workload all --runs 10 --out bench/results/BENCH_x.json

Workloads: certify, census, sweeps, construct (``all``), and census-full,
the paper's Z4^2 census, which is kept out of ``all`` for its length.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread (never more than nproc), and an
# inherited LINKSET_JOBS cannot change the census.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["LINKSET_JOBS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

ALL = ("certify", "census", "sweeps", "construct")
SETUP_SAMPLES = 7
REFERENCE_CALLS = 10

END_TO_END = (("wall_s", "s"), ("slowest_job_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

# A fresh process doing exactly the set-up of a run, timed from its start.
PROBE = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
         "workloads.setup({workload!r}); print('ready', flush=True)")

# ROADMAP Baseline rows the workloads reproduce: row -> (workload, job).
BASELINE_ROWS = {
    "Z4^2 census": ("census-full", "census z42"),
    "build_improved(Z4^5)": ("certify", "build improved Z4xZ4xZ4xZ4xZ4"),
    "expand / verify_full (l=31, v=64)": ("certify", "expand bent d=2"),
    "Spence sweep full on Z3^2xZ2^2": ("sweeps", "nonexist spence-d1 Z3xZ3xZ2xZ2 full"),
    "McFarland sweep pruned on Z3^2xZ5": ("sweeps", "nonexist mcfarland-q3 pruned"),
}
LEFT_OUT = {
    "bent_linking(kerdock_bent_set(3))": "about 30 s build plus 30 s re-verify on the same "
                                         "verify_reduced/rg.mul path as build_improved(Z4^5)",
    "McFarland sweep full": "28.6 s on the same float64 batch kernel as the Spence full sweep",
    "make_abelian table for Z4^6": "3.45 s of table building; certify builds Z4^5 tables",
    "dm_auto(Z8^2, 8)": "ran 274 s and returned None: out of reach, not a timing",
}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
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
    return None


def machine_info(loadavg) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(loadavg),
        "platform": platform.platform(),
    }


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(wall, reference) set-up seconds of SETUP_SAMPLES fresh processes, one
    after another, each scaled by the host speed measured just before and
    just after it."""
    import hostspeed

    code = PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload)
    speed = hostspeed.HostSpeed()
    speed.measure(1)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.measure(REFERENCE_CALLS)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        reference = (before + speed.measure(REFERENCE_CALLS)) / 2
        samples.append((wall, wall * hostspeed.NOMINAL_S / reference))
    return samples


def run_workload(args) -> int:
    loadavg = os.getloadavg()
    import hostspeed
    import tracer
    import workloads

    units, golden = workloads.setup(args.workload)
    rng = random.Random(args.seed)
    passes, traced, layer = [], [], []
    last_tracer = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        order = list(units)
        rng.shuffle(order)
        if not args.trace:
            passes.append(workloads.run_pass(order, golden, speed=hostspeed.HostSpeed()))
            continue
        # An untraced and a traced pass of the same order, taking turns at
        # going first so that a warmer second pass does not bias the overhead.
        last_tracer = tracer.Tracer()
        for traced_turn in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if traced_turn:
                traced.append(workloads.run_pass(order, golden, last_tracer))
            else:
                passes.append(workloads.run_pass(order, golden))
        layer.append(tracer.layer_metrics(last_tracer, traced[-1].wall_s, passes[-1].wall_s,
                                          traced[-1].certificate_bytes))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        units_of = dict(tracer.PER_LAYER)
        metrics = {name: {"value": statistics.median(m[name] for m in layer),
                          "unit": units_of[name]} for name in units_of}
        setup_samples = []
    else:
        setup_samples = measure_setup(args.workload)
        values = {
            "wall_s": statistics.median(p.wall_ref_s for p in passes),
            "slowest_job_s": statistics.median(p.slowest_job_ref_s for p in passes),
            "setup_s": statistics.median(ref for _wall, ref in setup_samples),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    every = passes + traced
    attempted = sum(len(p.jobs) for p in every)
    failed = sum(p.failed for p in every)
    failures = [f"{j.name}: {j.error}" for p in every for j in p.jobs if not j.ok]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(loadavg),
        "passes": [{"wall_s": p.wall_s, "traced": p.traced,
                    "wall_ref_s": None if p.traced or args.trace else p.wall_ref_s,
                    "jobs": {j.name: j.seconds for j in p.jobs},
                    "jobs_ref": {j.name: j.ref_seconds for j in p.jobs}} for p in every],
        "setup_samples_s": setup_samples, "peak_rss_mib": peak_rss_mib,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if last_tracer is not None:
        spans = {"spans": last_tracer.spans, "aggregates": last_tracer.aggregates,
                 "counters": dict(last_tracer.counters)}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio")
    if not args.trace:
        raw = statistics.median(p.wall_s for p in passes)
        print(f"{args.workload} wall_s, raw wall seconds = {raw:.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


# -- all workloads --------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(lines[-1]), record


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / med if med else None)
    return out


def run_all(args) -> int:
    names = [w for part in args.workload.split(",") if part
             for w in (ALL if part == "all" else (part,))]
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {"seconds": args.seconds, "runs": args.runs,
              "machine": machine_info(os.getloadavg()), "workloads": {}}
    ok = True
    for workload in names:
        results, records = [], []
        for i in range(args.runs):
            result, record = _child(workload, args.seed + i, args.seconds, 0)
            results.append(result)
            records.append(record)
            ok &= result["correct"]
        traced, _ = _child(workload, args.seed, args.seconds, 1)
        ok &= traced["correct"]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = {name: _spread([r["metrics"][name]["value"] for r in results]) | {"unit": unit}
                   for name, unit in END_TO_END}
        summary["failed_frac"] = {"median": failed / attempted, "unit": "ratio"}
        raw_walls = [statistics.median(p["wall_s"] for p in rec["passes"]) for rec in records]
        jobs, jobs_ref = {}, {}
        for rec in records:
            for p in rec["passes"]:
                for job, secs in p["jobs"].items():
                    jobs.setdefault(job, []).append(secs)
                    jobs_ref.setdefault(job, []).append(p["jobs_ref"][job])
        report["workloads"][workload] = {
            "end_to_end": summary,
            "raw_wall_s": _spread(raw_walls) | {"unit": "s"},
            "per_layer": traced["metrics"],
            "jobs_median_s": {job: statistics.median(v) for job, v in jobs.items()},
            "jobs_median_ref_s": {job: statistics.median(v) for job, v in jobs_ref.items()},
            "loadavg_at_start": [rec["machine"]["loadavg_at_start"] for rec in records],
        }
        for name, s in summary.items():
            spread = s.get("iqr_over_median")
            flag = ""
            if spread is not None and name in bounds and spread > bounds[name] / 3:
                flag = f"  UNSTEADY: spread above a third of the bound {bounds[name]}"
            extra = f"  IQR/median {spread:.1%} (n={s['n']})" if spread is not None else ""
            print(f"{workload:10s} {name:14s} {s['median']:12.6g} {s['unit']:5s}{extra}{flag}")
        raw = report["workloads"][workload]["raw_wall_s"]
        if "iqr_over_median" in raw:
            print(f"{workload:10s} {'(raw wall_s)':14s} {raw['median']:12.6g} s      "
                  f"IQR/median {raw['iqr_over_median']:.1%} (n={raw['n']})")
    report["baseline_rows"] = {
        row: {"workload": w, "job": job,
              "median_s": report["workloads"][w]["jobs_median_s"].get(job),
              "median_ref_s": report["workloads"][w]["jobs_median_ref_s"].get(job)}
        for row, (w, job) in BASELINE_ROWS.items() if w in report["workloads"]}
    report["left_out"] = LEFT_OUT
    out = Path(args.out) if args.out else OUT_DIR / "all.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"record written to {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="certify, census, sweeps, construct, census-full, all, "
                             "or a comma-separated list")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int,
                        help="runs (seeds) per workload, each in a fresh process")
    parser.add_argument("--out", help="record file of a --runs or several-workload run")
    args = parser.parse_args(argv)
    if not (SRC / "linkset" / "__init__.py").is_file():
        print(f"error: the linkset sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all" or "," in args.workload or args.runs or args.out:
        args.runs = args.runs or 1
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
