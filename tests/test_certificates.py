"""Certificate files as bytes: the writer's rendering of a linking system
from its id rows against json.dumps of its name lists, ``link
verify-reduced`` on the writer's own bytes (``io.canonical_system``)
against the general reader, the same command on layout variants and
single-field corruptions of a linking-system certificate, and corruptions
of the other kinds (difference set, difference matrix, bent set)."""

import io
import json

import pytest
from test_cli import run_capture

from linkset import io as lio
from linkset.bent import bent_linking, kerdock_bent_set
from linkset.cli import _write_json
from linkset.designs import make_record
from linkset.diffmat import build_improved, build_tyken, dm_auto
from linkset.groups import FiniteGroup, make_abelian
from linkset.linking import verify_reduced
from linkset.worked_examples import linked_triple_z4z4

BUILDS = {
    "improved Z4^3": ["build", "improved", "--group", '{"abelian": [4, 4, 4]}'],
    "improved Z4^4": ["build", "improved", "--group", '{"abelian": [4, 4, 4, 4]}'],
    "nonrev d=1": ["build", "nonrev", "-d", "1"],
    "tyken d=2 over Z2^3": ["build", "tyken", "-d", "2", "--group", '{"abelian": [2, 2, 2]}'],
}


def _render(cert) -> str:
    """The writer's bytes of ``cert``, as text."""
    out = io.StringIO()
    _write_json(out, cert)
    return out.getvalue()


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    """name -> the text of a canonical certificate: four written by
    ``build --out``, and the Kerdock d = 2 system of ``bent_linking``."""
    texts = {}
    for name, argv in BUILDS.items():
        path = tmp_path_factory.mktemp("cert") / "cert.json"
        assert run_capture(argv + ["--out", str(path)])[0] == 0
        texts[name] = path.read_text()
    system = bent_linking(kerdock_bent_set(2))
    texts["bent_linking kerdock d=2"] = _render(
        lio.certificate("linking-system", lio.system_to_json(system), {"family": "bent"}))
    return texts


def _summary(system):
    return (system.group.spec, system.sets(), system.params.as_tuple(),
            system.munu.as_tuple(), system.witness_ids.tolist())


def _runs(path):
    """(exit code, stdout, stderr) of ``link verify-reduced`` of ``path``, in
    text and in JSON output."""
    return [run_capture([*output, "link", "verify-reduced", str(path)])
            for output in ([], ["--output", "json"])]


def _verify(monkeypatch, path, general: bool):
    """``_runs(path)`` through the general reader alone (``canonical_system``
    patched to find nothing) or with ``system_from_json`` patched to raise."""
    def refuse(obj):
        raise AssertionError("the general reader ran")

    with monkeypatch.context() as patch:
        if general:
            patch.setattr(lio, "canonical_system", lambda text: None)
        else:
            patch.setattr(lio, "system_from_json", refuse)
        return _runs(path)


@pytest.mark.parametrize("name", [*BUILDS, "bent_linking kerdock d=2"])
def test_canonical_system_equals_the_general_reader(canonical, monkeypatch, tmp_path, name):
    """On a canonical certificate ``canonical_system`` returns the system
    the general reader returns, and ``link verify-reduced`` prints what the
    general reader's run prints without calling it."""
    text = canonical[name]
    fast = lio.canonical_system(text)
    assert fast is not None
    assert _summary(fast) == _summary(lio.system_from_json(json.loads(text)["payload"]))
    path = tmp_path / "cert.json"
    path.write_text(text)
    runs = _verify(monkeypatch, path, general=True)
    assert [code for code, _, _ in runs] == [0, 0]
    assert _verify(monkeypatch, path, general=False) == runs


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _oddly_named_triple():
    """The linked triple of Z4^2 in a copy of the group whose every element
    name holds a character json.dumps escapes: '"', '\\', a control
    character or a non-ASCII letter."""
    G, sets = linked_triple_z4z4()
    odd = ['a"b', "back\\slash", "tab\there", "nul\x00", "del\x7f", "élément", "\U0001d400",
           "\u2028"]
    names = [f"{odd[i % len(odd)]}{i}" for i in range(G.order)]
    return verify_reduced(FiniteGroup(G.table, names, G.generators, G.spec), sets)


# Systems whose rows must render as json.dumps of their name lists.  The
# bent system has l = 31, so its witness keys sort apart from their rows:
# "(1,10)" comes before "(1,2)".
ROW_SYSTEMS = {
    "bent_linking kerdock d=2": lambda: bent_linking(kerdock_bent_set(2)),
    "improved Z4^4": lambda: build_improved(make_abelian([4, 4, 4, 4])),
    "tyken d=2 over Z2^3 (nonabelian)": lambda: build_tyken(2, make_abelian([2, 2, 2])),
    "Z4^2 triple with escaped names": _oddly_named_triple,
}


@pytest.mark.parametrize("name", ROW_SYSTEMS)
def test_rows_render_the_bytes_of_json_dumps(name):
    """The writer's bytes of the row payload ``io._system_payload``, in a
    certificate and bare, are json.dumps of ``system_to_json``'s name lists
    in the same place."""
    system = ROW_SYSTEMS[name]()
    rows, names = lio._system_payload(system), lio.system_to_json(system)
    echo = {"family": name}
    assert (_render(lio.certificate("linking-system", rows, echo))
            == _dumps(lio.certificate("linking-system", names, echo)))
    assert _render(rows) == _dumps(names)


def test_output_json_prints_json_dumps_of_the_named_payload(canonical, tmp_path):
    """``--output json`` of ``build`` prints json.dumps of its certificate,
    and of ``link verify-reduced`` on that file the bare payload, each with
    ``system_to_json``'s name lists."""
    system = build_improved(make_abelian([4, 4, 4, 4]))
    code, out, _ = run_capture(["--output", "json", *BUILDS["improved Z4^4"]])
    assert code == 0 and out == canonical["improved Z4^4"] == _dumps(
        lio.certificate("linking-system", lio.system_to_json(system), {"family": "improved"}))
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run_capture(["--output", "json", "link", "verify-reduced", str(path)])
    assert code == 0 and out == _dumps(lio.system_to_json(system))


def test_the_writer_yields_no_piece_longer_than_one_row_and_its_key():
    """The writer streams: its longest piece is one row of names at its
    depth in the certificate, with the separator before it and its key."""
    system = bent_linking(kerdock_bent_set(2))
    names = lio.system_to_json(system)
    pieces = list(lio._json_pieces(
        lio.certificate("linking-system", lio._system_payload(system), None)))
    depth = " " * 6  # the rows' depth: certificate, payload, sets or witnesses
    rows = ([("", row) for row in names["sets"]]
            + [(json.dumps(key) + ": ", row) for key, row in names["witnesses"].items()])
    longest = max(len(",\n" + depth + key + json.dumps(row, indent=2).replace("\n", "\n" + depth))
                  for key, row in rows)
    assert len(pieces) > len(rows) and max(map(len, pieces)) == longest
    assert "".join(pieces) + "\n" == _dumps(lio.certificate("linking-system", names, None))


def test_the_writer_renders_every_value_but_id_rows_in_one_piece():
    """Only ``_NameRows`` and the dicts that hold them are rendered piece by
    piece: a difference-matrix certificate is one ``json.dumps``, and so is
    each value beside a linking system's rows."""
    M = dm_auto(make_abelian([4, 2]), 4)
    cert = lio.certificate("difference-matrix", lio.dm_to_json(M), {"rows": 4})
    assert list(lio._json_pieces(cert)) == [json.dumps(cert, indent=2, sort_keys=True)]
    system = build_improved(make_abelian([4, 4, 4]))
    pieces = list(lio._json_pieces(
        lio.certificate("linking-system", lio._system_payload(system), {"family": "improved"})))
    for value, depth in ((system.group.spec, "    "), ({"family": "improved"}, "  ")):
        assert json.dumps(value, indent=2).replace("\n", "\n" + depth) in pieces


def _variants(cert):
    """(name, text) of each layout-only variant of ``cert``: the same
    certificate to the general reader, not the writer's bytes."""
    text = _render(cert)

    def reordered(obj):
        if isinstance(obj, dict):
            return {key: reordered(obj[key]) for key in sorted(obj, reverse=True)}
        return [reordered(item) for item in obj] if isinstance(obj, list) else obj

    def changed(change):
        obj = json.loads(text)
        change(obj["payload"])
        return _render(obj)

    yield "compact separators", json.dumps(cert, separators=(",", ":"))
    yield "CRLF", text.replace("\n", "\r\n")
    yield "reordered keys", json.dumps(reordered(cert), indent=2) + "\n"
    yield "no final newline", text[:-1]
    yield "no witnesses", changed(lambda payload: payload.update(witnesses={}))
    yield "a witness spelled in reverse", changed(lambda payload: payload["witnesses"]["(1,2)"]
                                                  .reverse())


def _corruptions(cert, G):
    """(name, text, what the one error line says) of each single-field
    corruption of ``cert``, in the writer's layout, and of a truncated
    file."""
    text = _render(cert)

    def changed(change):
        obj = json.loads(text)
        change(obj)
        return _render(obj)

    def other_name(names):
        return next(name for name in G.names if name not in names)

    def set_name(obj):
        names = obj["payload"]["sets"][1]
        names[0] = other_name(names)

    def witness_name(obj):
        names = obj["payload"]["witnesses"]["(1,2)"]
        names[0] = other_name(names)

    def witness_key(obj):
        witnesses = obj["payload"]["witnesses"]
        witnesses["(1,9)"] = witnesses.pop("(1,2)")

    def payload(**fields):
        return changed(lambda obj: obj["payload"].update(fields))

    not_a_system = "do not form a reduced linking system"
    munu = "(mu, nu) disagree"
    nu = cert["payload"]["nu"]
    yield "group", payload(group={"abelian": [4, 4, 4, 2]}), not_a_system
    yield "params", payload(params=[64, 28, 12, 17]), "parameters disagree"
    yield "mu", payload(mu=nu), munu
    yield "nu", payload(nu=nu + 1), munu
    yield "one set name", changed(set_name), not_a_system
    yield "one witness name", changed(witness_name), "witness (1,2) disagrees"
    yield "one witness key", changed(witness_key), "witness key '(1,9)' is not (i,j)"
    yield "kind", changed(lambda obj: obj.update(kind="difference-set")), "kind 'difference-set'"
    yield "version", changed(lambda obj: obj.update(version="9.9.9")), "version '9.9.9'"
    yield "an unknown field", payload(note=1), "unknown field 'note'"
    yield "truncated", text[:len(text) // 2], "Expecting"


@pytest.fixture(scope="module")
def z4_cubed(canonical):
    """The ``build improved`` Z4^3 certificate, parsed, with its system."""
    text = canonical["improved Z4^3"]
    return json.loads(text), lio.canonical_system(text)


def test_layout_variants_verify_through_the_general_reader(z4_cubed, monkeypatch, tmp_path):
    """Each layout variant is not the writer's bytes, so the general reader
    reads it, and prints what it prints for the canonical file."""
    cert, _ = z4_cubed
    path = tmp_path / "cert.json"
    path.write_text(_render(cert))
    runs = _verify(monkeypatch, path, general=True)
    for name, text in _variants(cert):
        assert lio.canonical_system(text) is None, name
        path.write_bytes(text.encode())
        assert _runs(path) == runs, name


def test_an_input_echo_with_its_own_sets_is_not_read_as_the_payload(z4_cubed, monkeypatch,
                                                                   tmp_path):
    """The payload's sets come after its group, so an ``input`` holding a
    "sets" key of other sets, in the writer's layout, is still the writer's
    bytes of the same system: the fast path reads the payload's sets and
    verifies what the general reader verifies."""
    cert, system = z4_cubed
    text = _render(cert | {"input": {"family": "improved",
                                     "sets": cert["payload"]["sets"][::-1]}})
    fast = lio.canonical_system(text)
    assert fast is not None and _summary(fast) == _summary(system)
    path = tmp_path / "cert.json"
    path.write_text(text)
    runs = _verify(monkeypatch, path, general=True)
    assert [code for code, _, _ in runs] == [0, 0]
    assert _verify(monkeypatch, path, general=False) == runs
    path.write_text(_render(cert))
    assert _verify(monkeypatch, path, general=True) == runs


def test_single_field_corruptions_fail_with_one_line(z4_cubed, tmp_path):
    """Each corruption fails verification (exit 1), or is malformed JSON
    (exit 2), with one line saying why and no traceback."""
    cert, system = z4_cubed
    path = tmp_path / "cert.json"
    corruptions = list(_corruptions(cert, system.group))
    assert len(corruptions) == 11
    for name, text, says in corruptions:
        assert lio.canonical_system(text) is None, name
        path.write_bytes(text.encode())
        code, out, err = run_capture(["link", "verify-reduced", str(path)])
        malformed = name == "truncated"
        assert (code, out) == (2 if malformed else 1, ""), name
        assert err.startswith("error: " if malformed else "verification failed: "), name
        assert err.count("\n") == 1 and says in err, name


@pytest.mark.parametrize("old, new, key", [
    ('    "mu": 10,', '    "mu": 999,\n    "mu": 10,', "mu"),
    ('  "kind": "linking-system",', '  "kind": "bent-set",\n  "kind": "linking-system",', "kind"),
    ('      "abelian": [', '      "abelian": [2],\n      "abelian": [', "abelian"),
])
def test_a_duplicate_key_is_malformed_json(z4_cubed, tmp_path, old, new, key):
    """A certificate with a key twice in one object is a usage error (exit
    2, one ``error:`` line naming the key), not read as the last value,
    which here would verify."""
    cert, _ = z4_cubed
    text = _render(cert)
    assert text.count(old) == 1
    text = text.replace(old, new)
    assert lio.canonical_system(text) is None
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out, err = run_capture(["link", "verify-reduced", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: JSON object has duplicate key {key!r}\n"


@pytest.fixture(scope="module")
def every_kind(tmp_path_factory, canonical):
    """kind -> (its verify command, the text of a certificate in the
    writer's layout): a difference set of the linked triple, the Z2^2
    matrix of ``dm construct``, the d = 1 set of ``bent kerdock`` and the
    ``build improved`` Z4^3 system."""
    G, sets = linked_triple_z4z4()
    texts = {"ds": (["ds", "verify"], _render(lio.certificate(
                 "difference-set", lio.record_to_json(make_record(G, sets[0])), None))),
             "link": (["link", "verify-reduced"], canonical["improved Z4^3"])}
    for kind, argv in (("dm", ["dm", "construct", "--group", '{"abelian": [2, 2]}',
                               "--rows", "4"]),
                       ("bent", ["bent", "kerdock", "-d", "1"])):
        path = tmp_path_factory.mktemp(kind) / "cert.json"
        assert run_capture(argv + ["--out", str(path)])[0] == 0
        texts[kind] = ([kind, "verify"], path.read_text())
    return texts


def _other_name(names):
    return next(name for name in make_abelian([4, 4]).names if name not in names)


def _flip_a_bit(tables):
    tables[1] = f"{int(tables[1][0], 16) ^ 1:x}{tables[1][1:]}"


def _swap_an_entry(rows):
    rows[2][1] = rows[2][2]


# (kind, the payload field a corruption changes, the change, what the one
# error line says): one corruption of each kind that fails its verifier
KIND_CORRUPTIONS = [
    ("ds", "set", lambda names: names.__setitem__(0, _other_name(names)),
     "serialized set is not a difference set"),
    ("dm", "rows", _swap_an_entry, "serialized matrix fails the difference property"),
    ("bent", "tables", _flip_a_bit, "not a bent set"),
]
# (kind, the payload field, the index in it or None) of each JSON integer
INTEGER_FIELDS = [("ds", "params", 0), ("link", "params", 0), ("link", "mu", None),
                  ("link", "nu", None), ("dm", "lambda", None), ("bent", "arity", None)]


def _fails_with_one_line(every_kind, tmp_path, kind, payload, says):
    """Write the certificate of ``kind`` with ``payload`` in the writer's
    layout and check that its verify command fails: exit 1, nothing on
    stdout and one ``verification failed:`` line saying ``says``."""
    argv, text = every_kind[kind]
    cert = json.loads(text) | {"payload": payload}
    path = tmp_path / "cert.json"
    path.write_text(_render(cert))
    code, out, err = run_capture([*argv, str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("verification failed: ") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize("kind, field, change, says", KIND_CORRUPTIONS,
                         ids=[kind for kind, *_ in KIND_CORRUPTIONS])
def test_a_corruption_of_each_kind_fails_with_one_line(every_kind, tmp_path, kind, field,
                                                      change, says):
    argv, text = every_kind[kind]
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert run_capture([*argv, str(path)])[0] == 0
    payload = json.loads(text)["payload"]
    change(payload[field])
    _fails_with_one_line(every_kind, tmp_path, kind, payload, says)


@pytest.mark.parametrize("kind, field, index", INTEGER_FIELDS,
                         ids=[f"{kind} {field}" for kind, field, _ in INTEGER_FIELDS])
@pytest.mark.parametrize("as_float", [True, False], ids=["float", "true"])
def test_a_json_integer_field_takes_no_float_and_no_bool(every_kind, tmp_path, kind, field,
                                                        index, as_float):
    """The integral float of the written value, or true, in a JSON integer
    field fails verification: the readers let integers in through
    ``groups._int_scalar``, which coerces neither."""
    payload = json.loads(every_kind[kind][1])["payload"]
    holder, key = (payload, field) if index is None else (payload[field], index)
    holder[key] = float(holder[key]) if as_float else True
    _fails_with_one_line(every_kind, tmp_path, kind, payload, "is not an integer")
