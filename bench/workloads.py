"""Job lists of the linkset benchmark, how one pass runs them, and how each
answer is checked against the golden outputs in ``golden.json``.

Each workload is a fixed list of exact problems.  A job goes through
``linkset.cli.run(argv)`` wherever a command exists and writes its
certificate into the pass's scratch directory; jobs with no command call
the public function.  Jobs that read another job's output form one chain
(a "unit"); the workload seed shuffles the order of the units, never their
content, so it cannot change how much work a pass does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"

# Timing fields vary run to run; they are left out of every digest.
TIMING_KEYS = frozenset({"runtime_seconds"})


def _spec(factors) -> str:
    return json.dumps({"abelian": list(factors)})


def _label(factors) -> str:
    return "Z" + "xZ".join(str(f) for f in factors)


# -- what a job returns and how it is checked ----------------------------------


@dataclass
class Raw:
    """What a job left behind: exit code, captured stdout, the certificate it
    wrote (if any) or the Python object it returned."""

    rc: int
    stdout: str = ""
    cert: Path | None = None
    value: object = None


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(_strip_timing(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cert_outcome(raw: Raw, counts: Callable[[dict], dict]) -> dict:
    payload = json.loads(raw.cert.read_text())["payload"] if raw.cert.exists() else None
    return {"rc": raw.rc,
            "digest": digest(payload),
            "counts": counts(payload) if payload is not None else {}}


def _system_counts(payload: dict) -> dict:
    return {"size": len(payload["sets"]), "params": payload["params"]}


def _verify_outcome(raw: Raw) -> dict:
    match = re.search(r"linking system of size (\d+)", raw.stdout)
    return {"rc": raw.rc,
            "digest": digest(raw.stdout),
            "counts": {"size": int(match.group(1)) if match else None}}


def _sweep_counts(payload: dict) -> dict:
    return {"linked_pairs": [r["linked_pairs"] for r in payload["reports"]],
            "pairs_tested": [r["pairs_tested"] for r in payload["reports"]]}


# -- jobs -------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One exact problem.  ``run(workdir, state)`` is the timed part (``state``
    carries outputs from job to job within a unit); ``outcome(raw)`` reduces
    what it left to the golden form and runs after the pass, outside the
    timing and outside any trace."""

    name: str
    run: Callable[[Path, dict], Raw]
    outcome: Callable[[Raw], dict]


def _cli(argv: list[str]) -> tuple[int, str]:
    from linkset import cli

    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_stdio.StringIO()):
        rc = cli.run(argv)
    return rc, out.getvalue()


def cli_job(name: str, argv: list[str], counts: Callable[[dict], dict]) -> Job:
    """A command writing its certificate to ``<workdir>/<name>.json``."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", name)

    def run(workdir: Path, state: dict) -> Raw:
        cert = workdir / f"{slug}.json"
        rc, stdout = _cli(argv + ["--out", str(cert)])
        state[name] = cert
        return Raw(rc, stdout, cert)

    return Job(name, run, lambda raw: _cert_outcome(raw, counts))


def verify_job(name: str, build: str) -> Job:
    """``link verify-reduced`` on the certificate the job ``build`` wrote."""

    def run(workdir: Path, state: dict) -> Raw:
        rc, stdout = _cli(["link", "verify-reduced", str(state[build])])
        return Raw(rc, stdout)

    return Job(name, run, _verify_outcome)


def _bent_job() -> Job:
    def run(workdir: Path, state: dict) -> Raw:
        import linkset

        system = linkset.bent_linking(linkset.kerdock_bent_set(2))
        state["bent"] = system
        return Raw(0, value=system)

    def outcome(raw: Raw) -> dict:
        from linkset import io as lio

        payload = lio.system_to_json(raw.value)
        return {"rc": raw.rc, "digest": digest(payload), "counts": _system_counts(payload)}

    return Job("bent_linking kerdock d=2", run, outcome)


def _expand_job() -> Job:
    def run(workdir: Path, state: dict) -> Raw:
        import linkset

        return Raw(0, value=linkset.expand(state["bent"]))

    def outcome(raw: Raw) -> dict:
        from linkset import io as lio

        full = raw.value
        entries = {f"({i},{j})": lio.set_to_names(full.group, rec.elements)
                   for (i, j), rec in sorted(full.entries.items())}
        return {"rc": raw.rc, "digest": digest(entries),
                "counts": {"entries": len(entries), "top_index": full.top_index}}

    return Job("expand bent d=2", run, outcome)


def _census_job(factors, k: int, ell: int) -> Job:
    """Census of size-``ell`` systems of ``k``-subsets; no command takes a size."""

    def run(workdir: Path, state: dict) -> Raw:
        from linkset import groups, search
        from linkset import io as lio

        G = groups.make_abelian(list(factors))
        result = search.census_systems(G, k, ell, jobs=1)
        return Raw(0, value=lio.census_payload(G, result.systems, result.max_size,
                                               result.runtime_seconds))

    def outcome(raw: Raw) -> dict:
        p = raw.value
        return {"rc": raw.rc, "digest": digest(p),
                "counts": {"count": p["count"], "max_system_size": p["max_system_size"],
                           "system_size": p["system_size"]}}

    return Job(f"census {_label(factors)} k={k} size={ell}", run, outcome)


# -- workloads --------------------------------------------------------------------


def _certify() -> list[list[Job]]:
    units = []
    for factors in ([4, 4, 4, 4, 4], [4, 4, 4, 4]):
        build = f"build improved {_label(factors)}"
        units.append([cli_job(build, ["build", "improved", "--group", _spec(factors)],
                              _system_counts),
                      verify_job(f"verify {_label(factors)}", build)])
    units.append([cli_job("build nonrev d=2", ["build", "nonrev", "-d", "2"], _system_counts),
                  verify_job("verify nonrev d=2", "build nonrev d=2")])
    units.append([_bent_job(), _expand_job()])
    return units


def _census() -> list[list[Job]]:
    return [[_census_job([4, 4], 6, 2)],
            [cli_job("nonexist z8z2", ["nonexist", "z8z2", "--jobs", "1"],
                     lambda p: {"difference_sets": p["difference_sets"],
                                "size2_systems": p["size2_systems"]})]]


def _census_full() -> list[list[Job]]:
    return [[cli_job("census z42", ["census", "z42", "--jobs", "1"],
                     lambda p: {"count": p["count"],
                                "max_system_size": p["max_system_size"]})]]


def _sweeps() -> list[list[Job]]:
    return [[cli_job("nonexist mcfarland-q3 pruned", ["nonexist", "mcfarland-q3"],
                     _sweep_counts)],
            [cli_job("nonexist spence-d1 Z3xZ3xZ2xZ2 full",
                     ["nonexist", "spence-d1", "--group", _spec([3, 3, 2, 2]), "--full"],
                     _sweep_counts)]]


# Every abelian group of order 256 inside build_general's domain (rank >= 4,
# exponent <= 16); Z16xZ4xZ2^2 and Z16xZ2^4 take the backtracking route.
GENERAL_256 = ([16, 4, 2, 2], [16, 2, 2, 2, 2], [8, 8, 2, 2], [8, 4, 4, 2],
               [8, 4, 2, 2, 2], [8, 2, 2, 2, 2, 2], [4, 4, 4, 4], [4, 4, 4, 2, 2],
               [4, 4, 2, 2, 2, 2], [4, 2, 2, 2, 2, 2, 2], [2] * 8)


def _construct() -> list[list[Job]]:
    dm_rows = lambda p: {"rows": len(p["rows"]), "columns": len(p["rows"][0])}
    units = [[cli_job(f"build general {_label(f)}", ["build", "general", "--group", _spec(f)],
                      _system_counts)] for f in GENERAL_256]
    # Galois ring, product, backtracking, and the elementary-abelian field case.
    for factors, rows in (([4, 4, 4], 8), ([4, 4, 2, 2], 4), ([8, 2], 4), ([2, 2, 2, 2], 16)):
        units.append([cli_job(f"dm construct {_label(factors)} rows={rows}",
                              ["dm", "construct", "--group", _spec(factors),
                               "--rows", str(rows)], dm_rows)])
    for K in ([4, 2], [2, 2, 2]):
        units.append([cli_job(f"build tyken d=2 K={_label(K)}",
                              ["build", "tyken", "-d", "2", "--group", _spec(K)],
                              _system_counts)])
    units.append([cli_job("build nonrev d=1", ["build", "nonrev", "-d", "1"], _system_counts)])
    return units


# Why each workload exists is recorded in BENCHMARK.json; census-full is the
# paper's Z4^2 census, too long (about a minute a pass) for the repeated runs.
WORKLOADS: dict[str, Callable[[], list[list[Job]]]] = {
    "certify": _certify,
    "census": _census,
    "sweeps": _sweeps,
    "construct": _construct,
    "census-full": _census_full,
}


def warm_up() -> None:
    """One untimed call, so that the first timed job pays no first-call costs."""
    rc, _ = _cli(["build", "general", "--group", _spec([4, 4])])
    if rc != 0:
        raise RuntimeError("warm-up build failed")


def setup(workload: str) -> tuple[list[list[Job]], dict]:
    """Everything a run does before its first timed job."""
    import linkset  # noqa: F401  (the import is part of the set-up being measured)

    units = WORKLOADS[workload]()
    golden = json.loads(GOLDEN_PATH.read_text())
    missing = [j.name for u in units for j in u if j.name not in golden]
    if missing:
        raise KeyError(f"no golden output for {missing}")
    warm_up()
    return units, golden


# -- one pass ---------------------------------------------------------------------


@dataclass
class JobResult:
    name: str
    seconds: float
    ref_seconds: float | None
    ok: bool
    error: str | None = None


@dataclass
class PassResult:
    """``wall_s`` runs from the first job's start to the last job's end; with
    a host-speed reference, ``wall_ref_s`` is the jobs' summed time in
    reference seconds."""

    wall_s: float
    traced: bool
    jobs: list[JobResult] = field(default_factory=list)
    certificate_bytes: int = 0

    @property
    def wall_ref_s(self) -> float:
        return sum(j.ref_seconds for j in self.jobs)

    @property
    def slowest_job_ref_s(self) -> float:
        return max(j.ref_seconds for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(not j.ok for j in self.jobs)


def run_pass(order: list[list[Job]], golden: dict, tracer=None, speed=None) -> PassResult:
    """Run every job once, unit by unit in the given order, then check each
    answer against the golden output.  ``tracer`` or ``speed`` (a
    ``hostspeed.HostSpeed``) is active around the jobs only."""
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR))
    state: dict = {}
    done: list[tuple[Job, float, float, Raw | None, str | None]] = []
    try:
        with tracer or speed or contextlib.nullcontext():
            for unit in order:
                for job in unit:
                    t0 = time.perf_counter()
                    try:
                        raw, err = job.run(workdir, state), None
                    except Exception as exc:  # a failed job is counted, not fatal
                        raw, err = None, f"{type(exc).__name__}: {exc}"
                    done.append((job, t0, time.perf_counter(), raw, err))
        result = PassResult(wall_s=done[-1][2] - done[0][1], traced=tracer is not None)
        result.certificate_bytes = sum(p.stat().st_size for p in workdir.glob("*.json"))
        for job, t0, t1, raw, err in done:
            if err is None:
                try:
                    got = job.outcome(raw)
                except Exception as exc:  # e.g. a certificate missing a field
                    got = f"{type(exc).__name__}: {exc}"
                if got != golden[job.name]:
                    err = f"answer differs from golden: {got} != {golden[job.name]}"
            ref = speed.reference_seconds(t0, t1) if speed is not None else None
            result.jobs.append(JobResult(job.name, t1 - t0, ref, err is None, err))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
