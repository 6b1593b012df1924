"""JSON formats: group specs, element-name sets, difference-set records,
difference matrices, linking-system certificates, and search reports.

Element sets serialize as lists of generator-word names ordered by element
id, so output is canonical and digests are stable across runs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .designs import DifferenceSetRecord, is_difference_set
from .diffmat import DifferenceMatrix, verify_dm
from .groups import FiniteGroup, group_from_spec
from .linking import ReducedLinkingSystem, verify_reduced

FORMAT_VERSION = "0.1.0"


def set_to_names(G: FiniteGroup, elems) -> list[str]:
    return G.name_array[np.sort(np.asarray(elems, dtype=np.int64))].tolist()


def names_to_set(G: FiniteGroup, names) -> tuple[int, ...]:
    return tuple(sorted(G.element_ids(names)))


def record_to_json(record: DifferenceSetRecord) -> dict:
    return {
        "group": record.group.spec,
        "set": set_to_names(record.group, record.elements),
        "params": list(record.params.as_tuple()),
    }


def record_from_json(obj: dict) -> DifferenceSetRecord:
    G = group_from_spec(obj["group"])
    elems = names_to_set(G, obj["set"])
    params = is_difference_set(G, elems)
    if params is None:
        raise ValueError("serialized set is not a difference set")
    if "params" in obj and list(params.as_tuple()) != list(obj["params"]):
        raise ValueError("serialized parameters disagree with the verified ones")
    return DifferenceSetRecord(G, elems, params)


def system_to_json(system: ReducedLinkingSystem) -> dict:
    G = system.group
    return {
        "group": G.spec,
        "params": list(system.params.as_tuple()),
        "mu": system.munu.mu,
        "nu": system.munu.nu,
        "sets": [set_to_names(G, r.elements) for r in system.records],
        "witnesses": {f"({i},{j})": set_to_names(G, w.elements)
                      for (i, j), w in sorted(system.witnesses.items())},
    }


def system_from_json(obj: dict) -> ReducedLinkingSystem:
    G = group_from_spec(obj["group"])
    sets = [names_to_set(G, names) for names in obj["sets"]]
    system = verify_reduced(G, sets)
    if system is None:
        raise ValueError("serialized sets do not form a reduced linking system")
    if (system.munu.mu, system.munu.nu) != (obj["mu"], obj["nu"]):
        raise ValueError("serialized (mu, nu) disagree with verification")
    for key, names in obj.get("witnesses", {}).items():
        i, j = key.strip("()").split(",")
        stored = system.witnesses[(int(i), int(j))].elements
        if names_to_set(G, names) != stored:
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
    G = group_from_spec(obj["group"])
    rows = tuple(tuple(G.element_ids(row)) for row in obj["rows"])
    M = DifferenceMatrix(G, int(obj.get("lambda", 1)), rows)
    if not verify_dm(M):
        raise ValueError("serialized matrix fails the difference property")
    return M


def certificate(kind: str, payload: dict, input_echo=None) -> dict:
    return {
        "kind": kind,
        "version": FORMAT_VERSION,
        "input": input_echo,
        "payload": payload,
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


def census_payload(graph_group: FiniteGroup, systems, max_size: int, runtime: float) -> dict:
    canon = sorted(
        [sorted(set_to_names(graph_group, r.elements) for r in members)
         for members in systems]
    )
    return {
        "group": graph_group.spec,
        "system_size": len(canon[0]) if canon else 0,
        "count": len(canon),
        "max_system_size": max_size,
        "digest": digest({"count": len(canon), "systems": canon}),
        "runtime_seconds": runtime,
    }
