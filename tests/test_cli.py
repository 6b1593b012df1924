import contextlib
import io
import json

import pytest

from linkset import io as lio
from linkset.cli import run
from linkset.diffmat import dm_auto
from linkset.groups import make_abelian
from linkset.linking import verify_reduced
from linkset.worked_examples import linked_triple_z4z4


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def triple_file(tmp_path):
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(lio.system_to_json(system)))
    return path


def test_link_verify_reduced(triple_file):
    code, out, _ = run_capture(["link", "verify-reduced", str(triple_file)])
    assert code == 0
    assert "(1, 3)" in out


def test_link_verify_rejects_corrupt(triple_file, tmp_path):
    obj = json.loads(triple_file.read_text())
    obj["sets"][0][0] = "x1^2"  # perturb one element
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, _, err = run_capture(["link", "verify-reduced", str(bad)])
    assert code == 1 and "failed" in err


def test_missing_file_is_usage_error():
    code, _, _ = run_capture(["link", "verify-reduced", "/nonexistent.json"])
    assert code == 2


def test_group_info_json():
    code, out, _ = run_capture(["--output", "json", "group", '{"abelian": [8, 2]}'])
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 16 and info["exponent"] == 8 and info["rank"] == 2


def test_ds_round_trip(tmp_path):
    G, sets = linked_triple_z4z4()
    from linkset.designs import make_record

    path = tmp_path / "ds.json"
    path.write_text(json.dumps(lio.record_to_json(make_record(G, sets[0]))))
    code, out, _ = run_capture(["ds", "verify", str(path)])
    assert code == 0 and "(16, 6, 2, 4)" in out


def test_build_round_trips(tmp_path):
    for argv, expect_size in [
        (["build", "general", "--group", '{"abelian": [8, 2, 2, 2]}'], 3),
        (["build", "improved", "--group", '{"abelian": [4, 4, 4]}'], 7),
        (["build", "nonrev", "-d", "1"], 3),
        (["build", "tyken", "-d", "1", "--group", '{"abelian": [2]}'], 3),
    ]:
        path = tmp_path / "cert.json"
        code, out, _ = run_capture(argv + ["--out", str(path)])
        assert code == 0
        assert f"size {expect_size}" in out
        code, _, _ = run_capture(["link", "verify-reduced", str(path)])
        assert code == 0


def test_dm_round_trip(tmp_path):
    path = tmp_path / "dm.json"
    code, _, _ = run_capture(["dm", "construct", "--group", '{"abelian": [4, 2]}',
                              "--rows", "4", "--out", str(path)])
    assert code == 0
    code, _, _ = run_capture(["dm", "verify", str(path)])
    assert code == 0


def test_dm_absent():
    code, _, err = run_capture(["dm", "construct", "--group", '{"abelian": [4]}',
                                "--rows", "3"])
    assert code == 1 and "no difference matrix" in err


@pytest.mark.parametrize("argv", [
    ["dm", "construct", "--group", '{"abelian": [8, 4]}', "--rows", "4"],
    ["build", "general", "--group", '{"abelian": [16, 4, 2, 2]}'],  # quotient Z8 x Z2
    ["build", "improved", "--group", '{"abelian": [8, 8, 4, 2, 2]}'],  # quotient Z4^2 x Z2
])
def test_budget_out_is_inconclusive_exit_code(monkeypatch, argv):
    from linkset import diffmat
    from linkset.cli import EXIT_INCONCLUSIVE

    monkeypatch.setattr(diffmat, "DEFAULT_SEARCH_BUDGET", 100)
    code, out, err = run_capture(argv)
    assert code == EXIT_INCONCLUSIVE == 3
    assert out == "" and err.count("\n") == 1
    assert err.startswith("inconclusive:") and "Traceback" not in err


def test_bent_round_trip(tmp_path):
    path = tmp_path / "bent.json"
    code, _, _ = run_capture(["bent", "kerdock", "-d", "1", "--out", str(path)])
    assert code == 0
    code, out, _ = run_capture(["bent", "verify", str(path)])
    assert code == 0 and "size 8" in out


def test_nonexist_exit_codes():
    code, out, _ = run_capture(["nonexist", "mcfarland-q3", "--pruned"])
    assert code == 1  # confirmed empty is the expected outcome
    assert "0 linked pairs" in out


def test_selftest():
    code, out, _ = run_capture(["selftest"])
    assert code == 0 and "FAIL" not in out


def test_selftest_fails_on_a_broken_kernel(monkeypatch):
    from linkset import group_ring as rg

    transform = rg._Transform.__call__
    monkeypatch.setattr(rg._Transform, "__call__", lambda *a: transform(*a) + 1)
    code, out, _ = run_capture(["selftest"])
    assert code == 1 and "FAIL  autocorrelations" in out
    monkeypatch.undo()

    pair_products = rg.pair_products
    monkeypatch.setattr(rg, "pair_products", lambda G, left, right: pair_products(G, left, right) + 1)
    code, out, _ = run_capture(["selftest"])
    assert code == 1 and "FAIL  pair_products" in out


def test_usage_errors():
    assert run_capture(["census", "bogus"])[0] == 2
    assert run_capture(["frobnicate"])[0] == 2


def test_malformed_group_specs_are_usage_errors():
    for spec in ['{"abelian": "44"}', '{"abelian": [4, 4.5]}']:
        code, out, err = run_capture(["group", spec])
        assert code == 2 and out == "" and "list of integers" in err
        assert "Traceback" not in err


def test_orders_past_the_table_limit_are_usage_errors():
    for spec in ['{"abelian": [8192]}', '{"product": [{"abelian": [64]}, {"abelian": [128]}]}',
                 '{"abelian": [1000000000000]}',
                 '{"product": [{"abelian": [1024]}, {"abelian": [1024]}]}']:
        code, out, err = run_capture(["group", spec])
        assert code == 2 and out == "" and "exceeds table limit 4096" in err
        assert "Traceback" not in err


def test_build_general_rejects_order_4():
    code, out, err = run_capture(["build", "general", "--group", '{"abelian": [2, 2]}'])
    assert code == 2 and out == "" and "d must be at least 1" in err
    assert "Traceback" not in err


def test_version():
    code, out, _ = run_capture(["--version"])
    assert code == 0


def test_canonical_json_stable():
    G, sets = linked_triple_z4z4()
    system = verify_reduced(G, sets)
    a = lio.canonical_dumps(lio.system_to_json(system))
    b = lio.canonical_dumps(lio.system_to_json(verify_reduced(G, sets)))
    assert a == b
    assert lio.digest(lio.system_to_json(system)) == lio.digest(json.loads(a))


def test_dm_json_round_trip():
    M = dm_auto(make_abelian([4, 2]), 4)
    obj = lio.dm_to_json(M)
    back = lio.dm_from_json(obj)
    assert back.rows == M.rows and back.lam == M.lam
