"""JSON formats: group specs, element-name sets, difference-set records,
difference matrices, linking-system certificates, and search reports.

Element sets serialize as lists of generator-word names ordered by element
id, so output is canonical and digests are stable across runs.  Every
certificate file is the text of ``json.dumps(cert, indent=2,
sort_keys=True)`` plus a newline, rendered in pieces by ``_json_pieces``.
A linking-system certificate's sets and witnesses reach it as
``_NameRows``: the system's id rows and one table of quoted names, so each
row is one gather and one join and no list of names is built.  The same
renderer lets ``canonical_system`` accept a linking-system file that is
exactly those bytes by re-rendering it, with no JSON parse of its
witnesses.  Every other file is parsed and read field by field by the
``*_from_json`` readers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .bent import BooleanFunction, is_bent_set
from .designs import DifferenceSetRecord, is_difference_set
from .diffmat import DifferenceMatrix, verify_dm
from .groups import FiniteGroup, _id_array, _int_scalar, _scratch_rows, group_from_spec
from .linking import ReducedLinkingSystem, verify_reduced
from .search import CensusSystems

FORMAT_VERSION = "0.1.0"


def set_to_names(G: FiniteGroup, elems) -> list[str]:
    return G.name_array[np.sort(_id_array(G, elems))].tolist()


def names_to_set(G: FiniteGroup, names) -> tuple[int, ...]:
    return tuple(sorted(G.element_ids(names)))


def _field(obj, key: str):
    """``obj[key]``, or ValueError unless ``obj`` is a JSON object with that field."""
    if not isinstance(obj, dict):
        raise ValueError("certificate payload must be a JSON object")
    if key not in obj:
        raise ValueError(f"certificate payload has no {key!r} field")
    return obj[key]


def _known_fields(obj: dict, allowed: set, what: str = "certificate payload") -> None:
    """ValueError if the JSON object ``obj`` has a field outside ``allowed``:
    an unknown field is rejected, never ignored."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"{what} has unknown field {unknown[0]!r}")


def _strings(value, what: str) -> list:
    """``value`` if it is a list of strings, else ValueError: a bare string
    would otherwise be read as a list of one-character names."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"{what} must be a list of strings")
    return value


def _list_of(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _sets_field(G: FiniteGroup, value) -> list[tuple[int, ...]]:
    """The id sets of a payload's "sets": ValueError unless it is a list of
    lists of names of elements of ``G``."""
    return [names_to_set(G, _strings(names, "each entry of sets"))
            for names in _list_of(value, "sets")]


def _params_field(obj) -> list:
    """``obj``'s "params": ValueError unless it is a list of four integers
    (``groups._int_scalar``: no true, no 16.0), which the caller compares
    with the recomputed parameters."""
    params = _field(obj, "params")
    if not (isinstance(params, list) and len(params) == 4):
        raise ValueError("params must be a list of four integers")
    return [_int_scalar(x, "a params entry") for x in params]


def record_to_json(record: DifferenceSetRecord) -> dict:
    return {
        "group": record.group.spec,
        "set": set_to_names(record.group, record.elements),
        "params": list(record.params.as_tuple()),
    }


def record_from_json(obj: dict) -> DifferenceSetRecord:
    """The re-verified record of a payload: ValueError unless the set is a
    difference set and params are four ints equal to its recomputed ones."""
    G = group_from_spec(_field(obj, "group"))
    _known_fields(obj, {"group", "set", "params"})
    elems = names_to_set(G, _strings(_field(obj, "set"), "set"))
    stated = _params_field(obj)
    params = is_difference_set(G, elems)
    if params is None:
        raise ValueError("serialized set is not a difference set")
    if stated != list(params.as_tuple()):
        raise ValueError("serialized parameters disagree with the verified ones")
    return DifferenceSetRecord(G, elems, params)


def _witness_keys(system: ReducedLinkingSystem) -> list[str]:
    """The canonical key "(i,j)" of each witness, in the row order of
    ``witness_ids``."""
    return [f"({i},{j})" for i, j in system.pairs()]


def _system_fields(system: ReducedLinkingSystem, sets, witnesses) -> dict:
    return {
        "group": system.group.spec,
        "params": list(system.params.as_tuple()),
        "mu": system.munu.mu,
        "nu": system.munu.nu,
        "sets": sets,
        "witnesses": witnesses,
    }


def system_to_json(system: ReducedLinkingSystem) -> dict:
    names = system.group.name_array
    return _system_fields(
        system, names[np.asarray(system.sets(), dtype=np.int64)].tolist(),
        dict(zip(_witness_keys(system), names[system.witness_ids].tolist())))


@dataclass(frozen=True)
class _NameRows:
    """Rows of element ids that ``_json_pieces`` renders as JSON lists of
    their names: a list of the rows or, with one key per row, an object.
    ``quoted[id]`` is the name as ``json.dumps`` writes it, quotes and all."""

    quoted: np.ndarray
    ids: np.ndarray
    keys: list[str] | None = None

    def pieces(self, indent: str):
        """The text of ``json.dumps(value, indent=2, sort_keys=True)`` at
        depth ``indent``, one piece per row: each row is one gather from
        ``quoted`` and one join, and keyed rows come in sorted key order.
        There is a row at least: a reduced system has two sets and two
        witnesses."""
        inner, item = indent + "  ", indent + "    "
        sep = ",\n" + item
        if self.keys is None:
            brackets, order = "[]", range(len(self.ids))
            heads = itertools.repeat(inner)
        else:
            brackets, order = "{}", sorted(range(len(self.keys)), key=self.keys.__getitem__)
            heads = (inner + encode_basestring_ascii(self.keys[n]) + ": " for n in order)
        quoted, ids, lead = self.quoted, self.ids, brackets[0] + "\n"
        for n, head in zip(order, heads):
            row = quoted[ids[n]].tolist()
            yield f"{lead}{head}[\n{item}{sep.join(row)}\n{inner}]" if row else f"{lead}{head}[]"
            lead = ",\n"
        yield "\n" + indent + brackets[1]


def _system_payload(system: ReducedLinkingSystem) -> dict:
    """``system_to_json(system)`` with its sets and witnesses as
    ``_NameRows`` over one table of quoted names: the same text under
    ``_json_pieces``, with no list of names built."""
    quoted = np.array(list(map(encode_basestring_ascii, system.group.names)), dtype=object)
    return _system_fields(system, _NameRows(quoted, np.asarray(system.sets(), dtype=np.int64)),
                          _NameRows(quoted, system.witness_ids, _witness_keys(system)))


def system_from_json(obj: dict) -> ReducedLinkingSystem:
    """The re-verified system of a certificate payload: ValueError unless
    params, mu and nu are integers (``groups._int_scalar``: no true, no 3.0)
    equal to the recomputed ones, and every witness given equals the
    recomputed one."""
    G = group_from_spec(_field(obj, "group"))
    _known_fields(obj, {"group", "params", "mu", "nu", "sets", "witnesses"})
    params = _params_field(obj)
    munu = tuple(_int_scalar(_field(obj, key), key) for key in ("mu", "nu"))
    system = verify_reduced(G, _sets_field(G, _field(obj, "sets")))
    if system is None:
        raise ValueError("serialized sets do not form a reduced linking system")
    if params != list(system.params.as_tuple()):
        raise ValueError("serialized parameters disagree with the verified ones")
    if system.munu.as_tuple() != munu:
        raise ValueError("serialized (mu, nu) disagree with verification")
    stored = obj.get("witnesses", {})
    if not isinstance(stored, dict):
        raise ValueError("witnesses must be an object")
    # only the canonical spelling of a pair names a witness: "(01,2)" is no key
    rows = {key: row for row, key in enumerate(_witness_keys(system))}
    canonical = G.name_array[system.witness_ids].tolist()
    for key, names in stored.items():
        row = rows.get(key)
        if row is None:
            raise ValueError(f"witness key {key!r} is not (i,j) for distinct "
                             f"i, j in 1..{system.size}")
        # the canonical names match at once; any other spelling of the same
        # set (another order, an equivalent generator word) is parsed
        if names != canonical[row] and (
                list(names_to_set(G, _strings(names, f"witness {key}")))
                != system.witness_ids[row].tolist()):
            raise ValueError(f"witness {key} disagrees with the recomputed one")
    return system


def dm_to_json(M: DifferenceMatrix) -> dict:
    G = M.group
    return {
        "group": G.spec,
        "lambda": M.lam,
        "rows": [G.name_array[list(row)].tolist() for row in M.rows],
    }


def dm_from_json(obj: dict) -> DifferenceMatrix:
    """The re-verified matrix of a payload: ValueError unless lambda, which
    ``dm_to_json`` always writes, is an integer (``groups._int_scalar``)
    and the rows are a difference matrix for it."""
    G = group_from_spec(_field(obj, "group"))
    _known_fields(obj, {"group", "lambda", "rows"})
    rows = tuple(tuple(G.element_ids(_strings(row, "each entry of rows")))
                 for row in _list_of(_field(obj, "rows"), "rows"))
    M = DifferenceMatrix(G, _int_scalar(_field(obj, "lambda"), "lambda"), rows)
    if not verify_dm(M):
        raise ValueError("serialized matrix fails the difference property")
    return M


def bent_set_to_json(fns) -> dict:
    return {"arity": fns[0].arity, "tables": [f.to_hex() for f in fns]}


def bent_set_from_json(obj: dict) -> list[BooleanFunction]:
    arity = _int_scalar(_field(obj, "arity"), "arity", 0)
    _known_fields(obj, {"arity", "tables"})
    tables = _strings(_field(obj, "tables"), "tables")
    fns = [BooleanFunction.from_hex(arity, table) for table in tables]
    if not is_bent_set(fns):
        raise ValueError("not a bent set")
    return fns


def certificate(kind: str, payload: dict, input_echo=None) -> dict:
    return {
        "kind": kind,
        "version": FORMAT_VERSION,
        "input": input_echo,
        "payload": payload,
    }


def _holds_rows(obj) -> bool:
    """Whether ``obj`` is ``_NameRows`` or a dict that holds some at any depth."""
    return isinstance(obj, _NameRows) or (
        isinstance(obj, dict) and any(map(_holds_rows, obj.values())))


def _json_pieces(obj, indent: str = ""):
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, in pieces.

    ``_NameRows`` render themselves, one piece a row, and the dicts that
    hold them recurse; every other value is one ``json.dumps``, its
    continuation lines shifted to this depth.
    """
    if isinstance(obj, _NameRows):
        yield from obj.pieces(indent)
    elif _holds_rows(obj):
        inner = indent + "  "
        for n, key in enumerate(sorted(obj)):
            yield ("{\n" if n == 0 else ",\n") + inner + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(obj[key], inner)
        yield "\n" + indent + "}"
    else:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


# Where the writer's layout of a linking-system certificate puts the values
# that canonical_system reads: "input" right after the opening brace, then
# "kind" and the payload's "group", and later the payload's "sets".
_CERT_HEAD = '{\n  "input": '
_GROUP_HEAD = ',\n  "kind": "linking-system",\n  "payload": {\n    "group": '
_SETS_HEAD = '\n    "sets": '
_DECODER = json.JSONDecoder()


def canonical_system(text: str) -> ReducedLinkingSystem | None:
    """The system of a linking-system certificate whose text is byte for
    byte the one the writer emits for that system, or None.

    Only ``input``, the payload's ``group`` and its ``sets`` are read, by
    ``raw_decode`` at the offsets the writer's layout puts them; the sets
    are verified in full by ``verify_reduced``; and ``text`` is compared,
    piece by piece and with no second copy of it, with the writer's pieces
    of ``certificate("linking-system", _system_payload(system), input)``
    plus a newline.  The system is returned only if they are equal.  None
    means "read it with the general reader", never "invalid".

    Soundness: the writer's bytes are ``json.dumps(cert, indent=2,
    sort_keys=True) + "\\n"`` for ``cert`` the same certificate with
    ``system_to_json(system)`` as its payload (pinned by the tests), so
    equality means that ``json.loads(text)`` is that certificate, on which
    the general reader (``system_from_json`` of the payload) verifies the
    same sets and returns the same params, (mu, nu) and ``witness_ids``.
    That holds whatever the first step read: a misread can only make the
    comparison fail.
    """
    if not text.startswith(_CERT_HEAD):
        return None
    try:
        input_echo, end = _DECODER.raw_decode(text, len(_CERT_HEAD))
        if not text.startswith(_GROUP_HEAD, end):
            return None
        spec, end = _DECODER.raw_decode(text, end + len(_GROUP_HEAD))
        sets, _ = _DECODER.raw_decode(text, text.index(_SETS_HEAD, end) + len(_SETS_HEAD))
        G = group_from_spec(spec)
        system = verify_reduced(G, _sets_field(G, sets))
    except (ValueError, RecursionError):  # nesting too deep for the decoder
        return None
    if system is None:
        return None
    cert = certificate("linking-system", _system_payload(system), input_echo)
    pos = 0
    for piece in itertools.chain(_json_pieces(cert), ["\n"]):
        if not text.startswith(piece, pos):
            return None
        pos += len(piece)
    return system if pos == len(text) else None


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def census_payload(graph_group: FiniteGroup, systems: CensusSystems, max_size: int,
                   runtime: float) -> dict:
    """The census report.  Its digest is sha256 of canonical_dumps of
    {"count": m, "systems": canon}, canon the sorted list of the systems,
    each the sorted list of its sets' name lists.

    The digest is streamed: each vertex of the view is ranked once by its
    name list (equal lists share a rank, so comparing ranks compares name
    lists), each system's ranks are sorted, the systems ordered by
    ``np.lexsort``, and the compact JSON text, joined from one string per
    vertex, fed to sha256 a block of systems at a time, each block's
    token array within SCRATCH_BYTES.
    """
    G = graph_group
    ids = np.asarray([r.elements for r in systems.records], dtype=np.int64)
    names = G.name_array[ids].tolist()
    rank = np.zeros(len(names), dtype=np.int64)
    texts: list[str] = []
    previous = None
    for i in sorted(range(len(names)), key=names.__getitem__):
        if names[i] != previous:
            texts.append(json.dumps(names[i], separators=(",", ":")))
            previous = names[i]
        rank[i] = len(texts) - 1
    keys = np.sort(rank[systems.cliques], axis=1)
    keys = keys[np.lexsort(keys.T[::-1])]
    count, size = keys.shape
    texts = np.array(texts, dtype=object)
    h = hashlib.sha256(f'{{"count":{count},"systems":['.encode())
    step = _scratch_rows(texts.itemsize * (2 * size + 1))
    for start in range(0, count, step):
        # the tokens ",[" t_1 "," t_2 ... "," t_size "]" of each system, one join a block
        block = keys[start:start + step]
        tokens = np.full((len(block), 2 * size + 1), ",", dtype=object)
        tokens[:, 0] = ",["
        tokens[:, -1] = "]"
        tokens[:, 1::2] = texts[block]
        if start == 0:
            tokens[0, 0] = "["
        h.update("".join(tokens.ravel().tolist()).encode())
    h.update(b"]}")
    return {
        "group": G.spec,
        "system_size": size if count else 0,
        "count": count,
        "max_system_size": max_size,
        "digest": h.hexdigest(),
        "runtime_seconds": runtime,
    }
