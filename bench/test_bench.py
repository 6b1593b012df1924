"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import inspect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        (1, "a", 0.0, 10.0, 0),
        (2, "b", 1.0, 3.0, 1),
        (3, "c", 2.0, 5.0, 1),    # overlaps b: together they cover [1, 5]
        (4, "d", 7.0, 8.0, 1),
        (5, "e", 2.5, 3.5, 3),
        (8, "f", 9.0, 12.0, 1),   # runs past its parent: only [9, 10] counts
    ]
    aggregates = [
        (6, "hot", 1, 3, 1.0),    # three calls under a, one second in all
        (7, "inner", 6, 2, 0.25),
    ]
    own = tracer.self_times(spans, aggregates)
    assert own[1] == pytest.approx(10 - (4 + 1 + 1) - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)
    assert own[6] == pytest.approx(0.75)
    assert own[7] == pytest.approx(0.25)


def test_reference_seconds_scale_and_exclude_samples():
    nominal, pad = hostspeed.NOMINAL_S, hostspeed.PAD_S
    speed = hostspeed.HostSpeed()
    speed.starts = [0.0, 10.0, 11.0, 12.0 + pad / 2, 20.0]
    speed.durations = [nominal, 2 * nominal, 2 * nominal, 2 * nominal, nominal]
    # two samples inside [9.5, 12.0], one just after it: all at half speed
    assert speed.reference_seconds(9.5, 12.0) == pytest.approx((2.5 - 4 * nominal) / 2)
    # none inside or near: the last one before is used, nothing is subtracted
    assert speed.reference_seconds(2.0, 3.0) == pytest.approx(1.0)


def _function_bindings() -> dict:
    from linkset.groups import FiniteGroup

    out = {(mod.__name__, attr): obj for mod in tracer.linkset_modules()
           for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    out[("FiniteGroup", "mul")] = FiniteGroup.__dict__["mul"]
    return out


def test_tracer_restores_every_binding():
    import linkset
    from linkset import designs, linking

    tracer.public_functions()  # import every layer module before the snapshot
    before = _function_bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            # a function imported by name is wrapped where it is imported too
            original = before[("linkset.designs", "is_difference_set")]
            assert designs.is_difference_set is not original
            assert linking.is_difference_set is not original
            assert linkset.verify_reduced is not before[("linkset.linking", "verify_reduced")]
            linkset.make_abelian([4, 4])
            raise RuntimeError("leave the block by an exception")
    assert [s[1] for s in t.spans] == ["groups.make_abelian"]
    after = _function_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_construct_pass_matches_untraced_answers():
    units, golden = workloads.setup("construct")
    order = list(units)
    random.Random(3).shuffle(order)
    plain = workloads.run_pass(order, golden)
    t = tracer.Tracer()
    traced = workloads.run_pass(order, golden, tracer=t)
    # both passes are checked against the same digests and counts
    assert [j.error for j in plain.jobs] == [None] * len(plain.jobs)
    assert [j.error for j in traced.jobs] == [None] * len(traced.jobs)
    assert [j.name for j in plain.jobs] == [j.name for j in traced.jobs]
    metrics = tracer.layer_metrics(t, traced.wall_s, plain.wall_s, traced.certificate_bytes)
    assert metrics["cli.run.calls"] == len(traced.jobs)
    assert metrics["diffmat.dm_auto.calls"] > 0
    assert metrics["search.sweep.pairs_tested"] == 0


def _copy_bench(dest: Path, with_src: bool) -> Path:
    shutil.copytree(BENCH_DIR, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "test_*.py"))
    if with_src:
        (dest / "src").symlink_to(BENCH_DIR.parent / "src", target_is_directory=True)
    return dest / "bench" / "run.py"


def _run(script: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=300, cwd=script.parents[1])


def test_corrupted_golden_digest_fails_the_command(tmp_path):
    script = _copy_bench(tmp_path, with_src=True)
    golden_path = tmp_path / "bench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["build nonrev d=1"]["digest"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc = _run(script, "construct")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "build nonrev d=1" in proc.stderr


def test_without_the_sources_there_is_no_result(tmp_path):
    script = _copy_bench(tmp_path, with_src=False)
    proc = _run(script, "census")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
