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


def test_group_info_of_the_trivial_group():
    code, out, err = run_capture(["group", '{"abelian": []}'])
    assert code == 0 and err == ""
    assert "rank: 0" in out.splitlines() and "exponent: 1" in out.splitlines()


def test_run_builds_its_parser_once_and_keeps_no_state(monkeypatch):
    """``run`` builds one parser per process and reuses it: an ``--output
    json`` call leaves nothing behind, so the next default call prints text."""
    from linkset import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    group = ["group", '{"abelian": [8, 2]}']
    for _ in range(3):
        code, out, _ = run_capture(["--output", "json"] + group)
        assert code == 0 and json.loads(out)["order"] == 16
        code, out, _ = run_capture(group)
        assert code == 0 and "order: 16" in out.splitlines()
    assert run_capture(["nonexist", "z8z2", "--full"])[0] == 2
    full = cli._parser().parse_args(["nonexist", "spence-d1", "--full"])
    flagless = cli._parser().parse_args(["nonexist", "spence-d1"])
    assert (full.mode, flagless.mode) == ("full", None) and full is not flagless
    assert built == [1]


def test_certificates_are_read_as_utf8(tmp_path):
    """A certificate file is UTF-8: in UTF-16 or UTF-32, with a UTF-8 byte
    order mark, or with bytes that are no UTF-8, it is a usage error (exit 2,
    one ``error:`` line); with CRLF line endings it still verifies."""
    G, sets = linked_triple_z4z4()
    from linkset.designs import make_record

    text = json.dumps(lio.record_to_json(make_record(G, sets[0])), indent=2)
    path = tmp_path / "ds.json"
    for data in (text.encode("utf-16"), text.encode("utf-16-le"), text.encode("utf-32"),
                 text.encode("utf-8-sig"), text.replace("x1", "x1\xff").encode("latin-1")):
        path.write_bytes(data)
        code, out, err = run_capture(["ds", "verify", str(path)])
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    code, out, _ = run_capture(["ds", "verify", str(path)])
    assert code == 0 and "(16, 6, 2, 4)" in out


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


def test_dm_construct_from_the_library_product(tmp_path):
    # Z4 x Z2^3 with four rows: no Galois ring gives it and the search runs
    # out of budget (exit 3), so the library's product entry serves it
    path = tmp_path / "dm.json"
    code, out, _ = run_capture(["dm", "construct", "--group", '{"abelian": [4, 2, 2, 2]}',
                                "--rows", "4", "--out", str(path)])
    assert code == 0 and "verified" in out
    code, _, _ = run_capture(["dm", "verify", str(path)])
    assert code == 0


def test_dm_absent():
    code, _, err = run_capture(["dm", "construct", "--group", '{"abelian": [4]}',
                                "--rows", "3"])
    assert code == 1 and "no difference matrix" in err


@pytest.mark.parametrize("argv", [
    ["dm", "construct", "--group", '{"abelian": [8, 4]}', "--rows", "4"],
    ["build", "general", "--group", '{"abelian": [32, 4, 2, 2, 2]}'],  # quotient Z16 x Z2
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


def test_kerdock_past_its_domain_is_a_usage_error(monkeypatch):
    from linkset import bent

    monkeypatch.setattr(bent, "_kerdock_trace_family", None)  # no work may start
    code, out, err = run_capture(["bent", "kerdock", "-d", "5"])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: d must be between 0 and 4") and "Traceback" not in err


def test_nonexist_exit_codes():
    code, out, _ = run_capture(["nonexist", "mcfarland-q3", "--pruned"])
    assert code == 1  # confirmed empty is the expected outcome
    assert "0 linked pairs" in out


def test_nonexist_mode_flags_set_one_mode():
    """--full and --pruned choose one mode and exclude each other; with
    neither the parser leaves the mode unset, and a sweep runs pruned."""
    from linkset.cli import build_parser

    parser = build_parser()
    for flags, mode in (([], None), (["--pruned"], "pruned"), (["--full"], "full")):
        args = parser.parse_args(["nonexist", "mcfarland-q3", *flags])
        assert args.mode == mode and not hasattr(args, "pruned")
    with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exit_:
        parser.parse_args(["nonexist", "mcfarland-q3", "--full", "--pruned"])
    assert exit_.value.code == 2
    code, out, _ = run_capture(["--output", "json", "nonexist", "mcfarland-q3"])
    cert = json.loads(out)
    assert code == 1 and cert["input"]["mode"] == "pruned"
    assert [r["mode"] for r in cert["payload"]["reports"]] == ["pruned"]


@pytest.mark.parametrize("extra", [["--group", '{"abelian": [4, 4]}'], ["--group", ""],
                                   ["--full"], ["--pruned"]])
def test_nonexist_z8z2_rejects_group_and_full(monkeypatch, extra):
    """z8z2 names its group and has no mode: --group, --full or --pruned
    would be ignored, so each is a usage error before any work."""
    from linkset import cli

    monkeypatch.setattr(cli, "census_systems", None)  # no work may start
    code, out, err = run_capture(["nonexist", "z8z2", *extra])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "nonrev", "-d", "1", "--group", '{"abelian": [4]}'],
    ["build", "nonrev", "-d", "1", "--group", ""],
    ["build", "general", "--group", '{"abelian": [4, 4]}', "-d", "7"],
    ["build", "improved", "--group", '{"abelian": [4, 4, 4]}', "-d", "1"],
])
def test_build_rejects_arguments_its_family_ignores(monkeypatch, argv):
    """-d means nothing to general/improved and --group nothing to nonrev:
    either would be ignored, so it is a usage error before any work."""
    from linkset import cli

    for builder in ("build_general", "build_improved", "build_tyken", "build_nonreversible"):
        monkeypatch.setattr(cli, builder, None)  # no work may start
    code, out, err = run_capture(argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_usage_errors():
    assert run_capture(["census", "bogus"])[0] == 2
    assert run_capture(["frobnicate"])[0] == 2
    assert run_capture(["selftest"])[0] == 2


def test_malformed_group_specs_are_usage_errors():
    for spec, says in [('{"abelian": "44"}', "list of integers"),
                       ('{"abelian": [4, 4.5]}', "cyclic factor 4.5 is not an integer")]:
        code, out, err = run_capture(["group", spec])
        assert code == 2 and out == "" and says in err
        assert "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ('{"product": 5}', "list of exactly two factors"),
    ('{"product": null}', "list of exactly two factors"),
    ('{"product": {"a": 1, "b": 2}}', "list of exactly two factors"),
    ('{"product": ["D4"]}', "list of exactly two factors"),
    ('{"abelian": [4, 4], "x": 1}', "exactly one key"),
    ('{"product": ["D4", {"abelian": [2], "y": 0}]}', "exactly one key"),
    ('{}', "exactly one key"),
    ('{"abelian": [4], "abelian": [4, 4]}', "duplicate key 'abelian'"),
    ('{"product": ["D4", {"abelian": [2], "abelian": [2]}]}', "duplicate key 'abelian'"),
])
def test_malformed_spec_objects_are_usage_errors(spec, message):
    code, out, err = run_capture(["group", spec])
    assert code == 2 and out == "" and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['D4"', '"D4', '""D4""', '"D4"x'])
def test_group_texts_that_are_not_json_are_used_as_they_are(text):
    """A --group text that is not JSON is the spec as it stands: no quote
    is stripped from it, so none of these names D4.  The JSON string "D4"
    and the bare name D4 both do."""
    assert run_capture(["group", text]) == (
        2, "", f"error: unrecognized group spec {text!r}\n")
    for good in ('"D4"', "D4"):
        code, out, _ = run_capture(["group", good])
        assert code == 0 and out.startswith("spec: D4\norder: 8\n")


Z4Z2 = '{"abelian": [4, 2]}'


@pytest.mark.parametrize("argv, flag, text", [
    (["dm", "construct", "--group", Z4Z2, "--rows", "0_4"], "--rows", "0_4"),
    (["dm", "construct", "--group", Z4Z2, "--rows", "+4"], "--rows", "+4"),
    (["dm", "construct", "--group", Z4Z2, "--rows", " 4"], "--rows", " 4"),
    (["dm", "construct", "--group", Z4Z2, "--rows", "4.0"], "--rows", "4.0"),
    (["dm", "construct", "--group", Z4Z2, "--rows", ""], "--rows", ""),
    (["bent", "kerdock", "-d", "١"], "-d", "١"),
    (["bent", "kerdock", "-d", "1\n"], "-d", "1\n"),
    (["build", "nonrev", "-d", "1_0"], "-d", "1_0"),
    (["build", "tyken", "-d", "２", "--group", '{"abelian": [2]}'], "-d", "２"),
    (["census", "z42", "--jobs", "1_0"], "--jobs", "1_0"),
    (["census", "z42", "--jobs", "٢"], "--jobs", "٢"),
    (["nonexist", "z8z2", "--jobs", "１"], "--jobs", "１"),
])
def test_integer_flags_take_only_ascii_digits(monkeypatch, argv, flag, text):
    """--rows, -d and --jobs take an optional minus sign and ASCII decimal
    digits, and nothing that ``int`` would coerce: an underscore, a sign
    or space around the digits, a decimal point, or the digits of another
    script (Arabic-Indic, full-width).  Each is one ``error:`` line naming
    the flag and its text, exit 2, before any work."""
    from linkset import cli

    for name in ("dm_auto", "kerdock_bent_set", "build_nonreversible", "build_tyken",
                 "census_systems"):
        monkeypatch.setattr(cli, name, None)  # no work may start
    assert run_capture(argv) == (2, "", f"error: {flag} must be an integer, got {text!r}\n")


DEEP = "[" * 10 ** 5 + "]" * 10 ** 5  # nested past the decoder's recursion


def test_deeply_nested_json_is_a_usage_error(tmp_path):
    """A --group spec or a certificate nested 10^5 deep is malformed JSON:
    exit 2 with one error line.  Run in process, because one argument that
    long is past the operating system's limit.  The certificate is read
    bare and in the writer's layout, where ``io.canonical_system`` decodes
    the ``input`` echo first and hands the file to the general reader."""
    nested = "error: JSON document is nested too deeply\n"
    assert run_capture(["group", DEEP]) == (2, "", nested)
    path = tmp_path / "deep.json"
    for text in (DEEP, '{\n  "input": ' + DEEP + "}"):
        assert lio.canonical_system(text) is None
        path.write_text(text)
        for argv in (["link", "verify-reduced"], ["dm", "verify"]):
            assert run_capture([*argv, str(path)]) == (2, "", nested)


@pytest.mark.parametrize("rows", ["0", "-3"])
def test_dm_construct_rejects_fewer_than_one_row(rows):
    code, out, err = run_capture(["dm", "construct", "--group", '{"abelian": [2, 2]}',
                                  f"--rows={rows}"])
    assert code == 2 and out == "" and f"rows must be at least 1, got {rows}" in err
    assert "Traceback" not in err


def test_orders_past_the_table_limit_are_usage_errors():
    for spec in ['{"abelian": [8192]}', '{"product": [{"abelian": [64]}, {"abelian": [128]}]}',
                 '{"abelian": [1000000000000]}',
                 '{"product": [{"abelian": [1024]}, {"abelian": [1024]}]}']:
        code, out, err = run_capture(["group", spec])
        assert code == 2 and out == "" and "exceeds table limit 4096" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "nonrev", "-d", "6"],
    ["build", "nonrev", "-d", "100000"],
    ["build", "nonrev", "-d", "1000000"],
    ["build", "tyken", "-d", "1000000", "--group", '{"abelian": [2]}'],
])
def test_depths_past_the_table_limit_are_usage_errors(monkeypatch, argv):
    """A depth whose groups, of order 2^(2d+2), are past the table limit is
    rejected from d alone, before any group is built: one error line that
    names the order as a power of 2, not its thousands of digits."""
    from linkset import diffmat

    def no_build(*args, **kwargs):
        raise AssertionError("builder work ran")

    for name in ("make_abelian", "direct_product", "make_dihedral8", "_build_from_quotient_dm"):
        monkeypatch.setattr(diffmat, name, no_build)
    d = int(argv[3])
    assert run_capture(argv) == (
        2, "", f"error: group order 2^{2 * d + 2} exceeds table limit 4096\n")


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


@pytest.mark.parametrize("sets", [[[0], [1], [2]], [[0, 1, 2], [0, 1, 3]]])
def test_system_json_names_every_set_and_witness(sets):
    """Sets and witnesses of one element each as well as larger ones."""
    G = make_abelian([4])
    system = verify_reduced(G, sets)
    obj = lio.system_to_json(system)
    assert obj["sets"] == [lio.set_to_names(G, r.elements) for r in system.records]
    assert obj["witnesses"] == {f"({i},{j})": lio.set_to_names(G, w.elements)
                                for (i, j), w in system.witnesses.items()}
    assert ([r.elements for r in lio.system_from_json(obj).records]
            == [r.elements for r in system.records])


def test_dm_json_round_trip():
    M = dm_auto(make_abelian([4, 2]), 4)
    obj = lio.dm_to_json(M)
    back = lio.dm_from_json(obj)
    assert back.rows == M.rows and back.lam == M.lam


@pytest.mark.parametrize("argv, kind", [
    (["build", "improved", "--group", '{"abelian": [4, 4, 4]}'], "linking-system"),
    (["build", "nonrev", "-d", "1"], "linking-system"),
    (["dm", "construct", "--group", '{"abelian": [4, 2]}', "--rows", "4"], "difference-matrix"),
    (["bent", "kerdock", "-d", "1"], "bent-set"),
    (["census", "z42"], "census-report"),
    (["nonexist", "z8z2"], "nonexistence-report"),
    (["nonexist", "mcfarland-q3", "--pruned"], "nonexistence-report"),
])
def test_certificate_bytes_equal_json_dumps(monkeypatch, tmp_path, argv, kind):
    """The bytes written to --out are json.dumps(indent=2, sort_keys=True)
    of the object the command handed to the writer, plus a newline.  A
    linking system's payload reaches the writer as rows of ids
    (``io._system_payload``), which json.dumps cannot take: the bytes are
    those of the same certificate with ``system_to_json`` of the system as
    its payload."""
    from linkset import cli
    from linkset.search import census_systems

    # the size-2 census of Z4^2 writes the same report shape as size 3, faster
    monkeypatch.setattr(cli, "census_systems",
                        lambda G, k, ell, jobs: census_systems(G, k, 2, jobs=jobs))
    written, systems = [], []
    write_json, system_payload = cli._write_json, lio._system_payload
    monkeypatch.setattr(cli, "_write_json",
                        lambda fh, obj: written.append(obj) or write_json(fh, obj))
    monkeypatch.setattr(lio, "_system_payload",
                        lambda system: systems.append(system) or system_payload(system))
    path = tmp_path / "cert.json"
    code, _, _ = run_capture(argv + ["--out", str(path)])
    assert code in (0, 1) and len(written) == 1 and written[0]["kind"] == kind
    cert = written[0]
    if kind == "linking-system":
        (system,) = systems
        cert = cert | {"payload": lio.system_to_json(system)}
    else:
        assert systems == []
    expected = json.dumps(cert, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


def test_output_json_prints_the_certificate_bytes(tmp_path):
    path = tmp_path / "cert.json"
    argv = ["build", "improved", "--group", '{"abelian": [4, 4, 4]}', "--out", str(path)]
    code, out, _ = run_capture(["--output", "json"] + argv)
    assert code == 0 and out == path.read_text()


def test_json_writer_fallbacks_match_json_dumps():
    from linkset.cli import _write_json

    # each of these lists has one string that json.dumps escapes
    escaped = [["x1", s] for s in ('a"b', "back\\slash", "tab\there", "del\x7f", "nul\x00",
                                   "élément", "\U0001d400", "\u2028")]
    obj = {
        "plain": ["x1", "x1^2*x2", "1", "", " ~!#[]"],
        "escaped": escaped,
        "mixed": ["x1", 2, None, True, False, 1.5, -0.0, 1e300, float("inf"), float("nan")],
        "empty": [[], {}, [[]], [{}]],
        "nested": [[["x1", "x2"], []], [[1, [2, [3]]]], ("tu", "ple")],
        "int_keys": {3: "c", 1: ["a", {"b": [1]}]},
        "dict": {"z": {"y": {}}, "aé": [{"k": "v"}], "": 0},
        "scalars": [0, -7, 2 ** 70, 0.1],
        "\"key\"": "☃",
    }
    for value in [obj, [], {}, "x1", 3, None, ["x1", "x2"], [["x1"], "x2", {"a": []}]]:
        out = io.StringIO()
        _write_json(out, value)
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def _witness_variant(triple_file, tmp_path, change):
    obj = json.loads(triple_file.read_text())
    change(obj["witnesses"]["(1,2)"])
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(obj))
    return run_capture(["link", "verify-reduced", str(path)])


def test_link_verify_accepts_other_spellings_of_a_witness(triple_file, tmp_path):
    def respell(names):
        names.reverse()
        i = next(i for i, name in enumerate(names) if name != "1")
        names[i] += "*x1^4"  # x1 has order 4: the same element

    for change in (list.reverse, respell):
        code, out, err = _witness_variant(triple_file, tmp_path, change)
        assert code == 0 and err == "" and "linking system of size 3" in out


def test_link_verify_rejects_a_tampered_witness(triple_file, tmp_path):
    def tamper(names):
        names[0] = next(f"x1^{a}*x2^{b}" for a in (1, 2, 3) for b in (1, 2, 3)
                        if f"x1^{a}*x2^{b}".replace("^1", "") not in names)

    code, out, err = _witness_variant(triple_file, tmp_path, tamper)
    assert code == 1 and out == "" and "witness (1,2) disagrees" in err


def _malformed_triples(triple):
    """(name, payload) pairs: the triple certificate with one shape broken."""

    def changed(path, value):
        obj = json.loads(json.dumps(triple))
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        return obj

    witnesses = triple["witnesses"]
    yield "top-level list", [1, 2]
    yield "top-level string", "x1"
    yield "top-level number", 5
    yield "wrapped list", {"kind": "linking-system", "payload": [1, 2]}
    yield "sets a string", changed(["sets"], "x1")
    yield "set an int", changed(["sets", 0], 5)
    yield "set a string", changed(["sets", 0], "x1")
    yield "set with an int name", changed(["sets", 0, 0], 7)
    yield "witnesses a list", changed(["witnesses"], [])
    yield "witness a string", changed(["witnesses", "(1,2)"], "".join(witnesses["(1,2)"]))
    yield "witness with an int", changed(["witnesses", "(1,2)", 0], 1)
    for key in ("1-2", "(a,b)", "(1,1)", "(9,1)", "(1,2,3)", "(0,1)", " (1,2)"):
        obj = json.loads(json.dumps(triple))
        obj["witnesses"][key] = obj["witnesses"].pop("(1,2)")
        yield f"witness key {key!r}", obj
    # a pair spelt with leading zeros, holding that pair's own witness
    for key, pair in (("(01,2)", "(1,2)"), ("(2,001)", "(2,1)")):
        obj = json.loads(json.dumps(triple))
        obj["witnesses"][key] = obj["witnesses"].pop(pair)
        yield f"witness key {key!r}", obj
    for key in ("group", "sets", "mu", "nu"):
        yield f"no {key}", _without(triple, key)


def _without(payload, key):
    """``payload`` with the field ``key`` dropped."""
    return {name: value for name, value in payload.items() if name != key}


def _assert_verification_failed(argv):
    code, out, err = run_capture(argv)
    assert code == 1 and out == ""
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    return err


def test_malformed_linking_certificates_fail_verification(triple_file, tmp_path):
    triple = json.loads(triple_file.read_text())
    for name, payload in _malformed_triples(triple):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        err = _assert_verification_failed(["link", "verify-reduced", str(path)])
        if name.startswith("no "):
            assert f"no {name[3:]!r} field" in err


def test_malformed_dm_ds_and_bent_certificates_fail_verification(tmp_path):
    G, sets = linked_triple_z4z4()
    from linkset.designs import make_record

    dm = lio.dm_to_json(dm_auto(make_abelian([4, 2]), 4))
    ds = lio.record_to_json(make_record(G, sets[0]))
    bent = {"arity": 2, "tables": ["00", "08"]}
    cases = [
        ("dm", [1, 2]), ("dm", dm | {"rows": "x1"}), ("dm", dm | {"rows": ["x1"] + dm["rows"][1:]}),
        ("dm", dm | {"rows": [[1, 2]] + dm["rows"][1:]}), ("dm", dm | {"lambda": [1]}),
        ("dm", dm | {"rows": []}), ("dm", dm | {"lambda": 0, "rows": [[], []]}),
        ("ds", [1, 2]), ("ds", ds | {"set": "x1"}), ("ds", ds | {"set": [1, 2]}),
        ("ds", ds | {"params": 4}),
        ("bent", [1, 2]), ("bent", bent | {"tables": "08"}), ("bent", bent | {"tables": [0, 8]}),
        ("bent", bent | {"tables": []}), ("bent", bent | {"arity": "2"}),
        ("bent", bent | {"tables": ["zz", "08"]}),
        ("bent", {"arity": 3, "tables": ["00"]}), ("bent", {"arity": 5, "tables": ["00000000"]}),
    ]
    dropped = [("dm", dm, "group"), ("dm", dm, "rows"), ("ds", ds, "group"), ("ds", ds, "set"),
               ("bent", bent, "arity"), ("bent", bent, "tables")]
    for command, payload in cases:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        _assert_verification_failed([command, "verify", str(path)])
    for command, payload, key in dropped:
        path.write_text(json.dumps(_without(payload, key)))
        assert f"no {key!r} field" in _assert_verification_failed([command, "verify", str(path)])
    path.write_text(json.dumps(bent))
    assert run_capture(["bent", "verify", str(path)])[0] == 0


def test_ds_and_dm_verify_check_params_and_lambda(tmp_path):
    """A difference-set certificate needs its params as four ints equal to
    the recomputed ones, and a difference-matrix certificate the int lambda
    that ``dm_to_json`` writes: another value or type, or none, fails."""
    G, sets = linked_triple_z4z4()
    from linkset.designs import make_record

    ds = lio.record_to_json(make_record(G, sets[0]))
    dm = lio.dm_to_json(dm_auto(make_abelian([4, 2]), 4))
    assert (ds["params"], dm["lambda"]) == ([16, 6, 2, 4], 1)
    path = tmp_path / "cert.json"
    for command, payload in (("ds", ds), ("dm", dm)):
        path.write_text(json.dumps(payload))
        assert run_capture([command, "verify", str(path)])[0] == 0
    cases = [("ds", ds | {"params": params}) for params in (
        [16.0, 6, 2, 4], [16, 6, 2, 99], [16, 7, 2, 4], [16, 6, 2], [16, 6, 2, True], "junk")]
    cases += [("ds", _without(ds, "params")), ("dm", _without(dm, "lambda"))]
    cases += [("dm", dm | {"lambda": lam}) for lam in (1.0, True, 2, "1")]
    for command, payload in cases:
        path.write_text(json.dumps(payload))
        _assert_verification_failed([command, "verify", str(path)])


def test_bent_verify_takes_exactly_the_bytes_of_a_table(tmp_path):
    """A Kerdock d = 1 certificate with "ff" appended to one table fails
    verification (it was read as its first 2^n bits), and so does a table
    of arity < 3 with a padding bit set."""
    path = tmp_path / "bent.json"
    assert run_capture(["bent", "kerdock", "-d", "1", "--out", str(path)])[0] == 0
    cert = json.loads(path.read_text())
    cert["payload"]["tables"][1] += "ff"
    path.write_text(json.dumps(cert))
    err = _assert_verification_failed(["bent", "verify", str(path)])
    assert "is 2 bytes with zero padding bits, got 3" in err
    path.write_text(json.dumps({"arity": 2, "tables": ["00", "18"]}))
    assert "padding bit" in _assert_verification_failed(["bent", "verify", str(path)])


def test_bent_verify_past_arity_12_fails_verification(tmp_path):
    """A two-member certificate of arity 14, valid hex, is past the arity
    domain (2^n <= MAX_TABLE_ORDER): one ``verification failed:`` line, exit
    1, no traceback."""
    path = tmp_path / "bent.json"
    size = 2 ** 14 // 8
    path.write_text(json.dumps({"arity": 14, "tables": ["00" * size, "01" + "00" * (size - 1)]}))
    err = _assert_verification_failed(["bent", "verify", str(path)])
    assert "arity 14 is past 12" in err and "Traceback" not in err


def test_verify_reads_the_certificate_kind_and_version(tmp_path):
    """A wrapped certificate verifies only under the command of its kind
    and at this format version; a bare payload, with no kind or version,
    is still accepted."""
    path = tmp_path / "system.json"
    argv = ["build", "general", "--group", '{"abelian": [4, 4]}', "--out", str(path)]
    assert run_capture(argv)[0] == 0
    cert = json.loads(path.read_text())
    verify = ["link", "verify-reduced", str(path)]
    assert run_capture(verify)[0] == 0
    for field, value, says in (("kind", "bent-set", "kind 'bent-set'"),
                               ("version", "9.9.9", "version '9.9.9'")):
        path.write_text(json.dumps(cert | {field: value}))
        assert says in _assert_verification_failed(verify)
    path.write_text(json.dumps(_without(cert, "version")))
    assert "version None" in _assert_verification_failed(verify)
    path.write_text(json.dumps(cert))
    assert "kind 'linking-system'" in _assert_verification_failed(["bent", "verify", str(path)])
    path.write_text(json.dumps(cert["payload"]))
    assert run_capture(verify)[0] == 0


def _valid_certificates():
    """(verify argv, kind, payload) for one valid payload of each kind."""
    from linkset.designs import make_record

    G, sets = linked_triple_z4z4()
    yield ["ds", "verify"], "difference-set", lio.record_to_json(make_record(G, sets[0]))
    yield (["link", "verify-reduced"], "linking-system",
           lio.system_to_json(verify_reduced(G, sets)))
    yield ["dm", "verify"], "difference-matrix", lio.dm_to_json(dm_auto(make_abelian([4, 2]), 4))
    yield ["bent", "verify"], "bent-set", {"arity": 2, "tables": ["00", "08"]}


@pytest.mark.parametrize("argv, kind, payload", list(_valid_certificates()),
                         ids=["ds", "linking-system", "dm", "bent-set"])
def test_verify_rejects_unknown_fields(argv, kind, payload, tmp_path):
    """An unknown field in a payload, bare or wrapped, or in the wrapper
    (whose fields are kind, version, input and payload) fails verification
    with one line naming it; the same certificate without it verifies."""
    path = tmp_path / "cert.json"
    wrapped = lio.certificate(kind, payload, {"target": "test"})
    for good in (payload, wrapped, _without(wrapped, "input")):
        path.write_text(json.dumps(good))
        assert run_capture([*argv, str(path)])[0] == 0
    cases = [(payload | {"note": 1}, "certificate payload has unknown field 'note'"),
             (wrapped | {"payload": payload | {"extra": []}},
              "certificate payload has unknown field 'extra'"),
             (wrapped | {"comment": "x"}, "certificate has unknown field 'comment'")]
    for bad, says in cases:
        path.write_text(json.dumps(bad))
        assert says in _assert_verification_failed([*argv, str(path)])


def test_verify_builds_its_json_payload_only_for_json_output(monkeypatch, triple_file):
    system_payload = lio._system_payload
    calls = []
    monkeypatch.setattr(lio, "_system_payload", lambda s: calls.append(s) or system_payload(s))
    code, out, _ = run_capture(["link", "verify-reduced", str(triple_file)])
    assert code == 0 and calls == []
    code, out, _ = run_capture(["--output", "json", "link", "verify-reduced", str(triple_file)])
    assert code == 0 and len(calls) == 1
    assert out == json.dumps(json.loads(triple_file.read_text()), indent=2, sort_keys=True) + "\n"


def test_build_builds_its_json_payload_only_for_json_output(monkeypatch, tmp_path):
    """``build`` makes its certificate only to write it: not at all under
    text output with no --out, once for --out or --output json, and once
    for both, which then print and write the same bytes."""
    system_payload = lio._system_payload
    calls = []
    monkeypatch.setattr(lio, "_system_payload", lambda s: calls.append(s) or system_payload(s))
    argv = ["build", "nonrev", "-d", "1"]
    path = tmp_path / "cert.json"
    code, out, _ = run_capture(argv)
    assert code == 0 and calls == [] and "linking system of size 3" in out
    assert run_capture(argv + ["--out", str(path)])[0] == 0 and len(calls) == 1
    written = path.read_text()
    code, out, _ = run_capture(["--output", "json", *argv])
    assert code == 0 and len(calls) == 2 and out == written
    path.unlink()
    code, out, _ = run_capture(["--output", "json", *argv, "--out", str(path)])
    assert code == 0 and len(calls) == 3 and out == path.read_text() == written
    expected = lio.certificate("linking-system", lio.system_to_json(calls[0]), {"family": "nonrev"})
    assert written == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_census_z42_text_reports_its_counts():
    code, out, err = run_capture(["census", "z42", "--jobs", "1"])
    assert code == 0 and err == ""
    assert ("vertices: 192, linked directed pairs: 12288, "
            "pairs re-verified: 12288, cliques: 65536") in out.splitlines()
    assert "digest: e6b7c55e6a8ee1611257089732beb388db4429ef06e36c7989267e15b6fe496e" in out


@pytest.mark.parametrize("jobs, workers", [("3", 3), ("10000000000000", 144)])
def test_jobs_start_no_more_workers_than_row_ranges(monkeypatch, jobs, workers):
    """``census z42 --jobs N`` asks its pool for one worker per row range,
    at most N and at most the 191 rows of its 192 vertices that have pairs
    i < j (144 ranges once equal shares of the pairs merge the short last
    rows): with a fake pool that records its size and maps in process, it
    prints what ``--jobs 1`` prints, timing apart."""
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers, self.ranges = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            calls = list(zip(*iterables))
            self.ranges += len(calls)
            return [fn(*args) for args in calls]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    code, want, err = run_capture(["census", "z42", "--jobs", "1"])
    assert code == 0 and err == "" and pools == []
    code, out, err = run_capture(["census", "z42", "--jobs", jobs])
    assert code == 0 and err == ""
    assert [(pool.max_workers, pool.ranges) for pool in pools] == [(workers, workers)]
    assert out.splitlines()[-1].startswith("runtime: ")
    assert out.splitlines()[:-1] == want.splitlines()[:-1]


@pytest.mark.parametrize("argv", [["census", "z42", "--jobs", "0"],
                                  ["census", "z42", "--jobs", "-2"],
                                  ["nonexist", "z8z2", "--jobs", "two"]])
def test_jobs_below_one_or_not_an_integer_are_usage_errors(monkeypatch, argv):
    from linkset import search

    monkeypatch.setattr(search, "enumerate_difference_sets", None)  # no work may start
    code, out, err = run_capture(argv)
    assert code == 2 and out == ""
    says = "--jobs must be an integer" if argv[-1] == "two" else "jobs must be at least 1"
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


@pytest.mark.parametrize("target", ["mcfarland-q3", "spence-d1"])
@pytest.mark.parametrize("jobs", ["1", "4"])
def test_sweep_targets_reject_jobs(monkeypatch, target, jobs):
    """The sweeps run in one process, so ``--jobs`` on them is a usage
    error before any work, as ``--group`` and ``--full`` are on z8z2."""
    from linkset import cli

    monkeypatch.setattr(cli, "mcfarland_pair_sweep", None)  # no work may start
    monkeypatch.setattr(cli, "spence_pair_sweep", None)
    code, out, err = run_capture(["nonexist", target, "--jobs", jobs])
    assert code == 2 and out == ""
    assert err == f"error: nonexist {target} takes no --jobs\n"


@pytest.fixture(scope="module")
def general_z42_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("general") / "cert.json"
    code, _, _ = run_capture(["build", "general", "--group", '{"abelian": [4, 4]}',
                              "--out", str(path)])
    assert code == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("field, value", [
    ("params", [16, 7, 2, 4]), ("params", [16, 6, 2, 99]), ("params", "junk"),
    ("params", [16, 6, 2]), ("params", [16.0, 6, 2, 4]), ("params", None),
    ("mu", True), ("nu", 3.0)])
def test_link_verify_checks_params_mu_and_nu(general_z42_certificate, tmp_path, field, value):
    """A ``build general`` Z4^2 certificate with params, mu or nu of another
    value or type (an equal float or bool included), or without params,
    fails verification."""
    cert = json.loads(json.dumps(general_z42_certificate))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run_capture(["link", "verify-reduced", str(path)])[0] == 0
    assert (cert["payload"]["params"], cert["payload"]["mu"], cert["payload"]["nu"]) == (
        [16, 6, 2, 4], 1, 3)
    if value is None:
        del cert["payload"][field]
    else:
        cert["payload"][field] = value
    path.write_text(json.dumps(cert))
    _assert_verification_failed(["link", "verify-reduced", str(path)])


@pytest.mark.parametrize("argv, says", [
    (["build", "general"], "--group is required for this family"),
    (["build", "tyken", "-d", "1"], "--group (the abelian factor K) is required for tyken"),
    (["build", "nonrev"], "-d is required for this family"),
])
def test_build_without_its_group_or_depth_is_a_usage_error(argv, says):
    assert run_capture(argv) == (2, "", f"error: {says}\n")
