"""Command-line entry point.

Exit codes follow the grep convention: 0 when the requested object was
found or verified, 1 when verification fails or a search confirms absence
(the expected outcome of the ``nonexist`` subcommands), 2 on usage errors,
and 3 (EXIT_INCONCLUSIVE) when a difference-matrix search ran out of budget
without settling existence (``dm construct``, ``build general``, ``build
improved``).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__
from . import io as lio
from .bent import kerdock_bent_set
from .diffmat import (
    SearchInconclusive,
    build_general,
    build_improved,
    build_nonreversible,
    build_tyken,
    dm_auto,
)
from .groups import SCRATCH_BYTES, abelian_rank, center, exponent, group_from_spec, make_abelian
from .linking import reversibility_profile
from .search import census_systems, mcfarland_pair_sweep, spence_pair_sweep

# A bounded search neither found its object nor proved it absent.
EXIT_INCONCLUSIVE = 3


def _unique_keys(pairs: list) -> dict:
    """``_load_json``'s ``object_pairs_hook``: an object with a key twice is
    a ValueError (a usage error), never read as its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"JSON object has duplicate key {key!r}")
            seen.add(key)
    return obj


def _load_json(text: str):
    """The JSON document ``text`` (a certificate or a ``--group`` spec),
    where a duplicate key or nesting too deep for the decoder's recursion
    is malformed JSON (a ValueError)."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def _parse_group(text: str):
    """The group of a ``--group`` text: its JSON value, else the text as it is."""
    try:
        spec = _load_json(text)
    except json.JSONDecodeError:
        spec = text
    return group_from_spec(spec)


def _integer(text: str, flag: str) -> int:
    """The value of the integer flag ``flag``: an optional minus sign and ASCII
    digits (``int`` alone takes "0_4" or other scripts' digits); anything
    else is a usage error (ValueError).  Its range is checked where the
    value comes in, by ``groups._int_scalar``."""
    if re.fullmatch(r"-?[0-9]+", text):
        return int(text)
    raise ValueError(f"{flag} must be an integer, got {text!r}")


def _emit(args, payload, text_lines: list[str]) -> None:
    """Print ``payload()`` as indented JSON under ``--output json``, else the
    text lines; the payload is only built when it is printed."""
    if args.output == "json":
        _write_json(sys.stdout, payload())
    else:
        for line in text_lines:
            print(line)


def _read_text(path: str) -> str:
    """The text of the file at ``path``, which must be UTF-8: its bytes are
    decoded as such (a UnicodeDecodeError is a ValueError, so a usage
    error), where ``json.loads`` would take UTF-16 or UTF-32 bytes as well.
    The bytes are dropped as soon as the text exists."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _payload_of(obj, kind: str):
    """The payload of a certificate of ``kind`` at ``io.FORMAT_VERSION``
    (ValueError for another, or for an unknown field), or ``obj`` itself
    when it is a bare payload."""
    if not (isinstance(obj, dict) and "payload" in obj and "kind" in obj):
        return obj
    lio._known_fields(obj, {"kind", "version", "input", "payload"}, "certificate")
    if (obj["kind"], obj.get("version")) != (kind, lio.FORMAT_VERSION):
        raise ValueError(f"certificate kind {obj['kind']!r}, version {obj.get('version')!r}: "
                         f"expected {kind!r}, version {lio.FORMAT_VERSION!r}")
    return obj["payload"]


def _write_json(fh, obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` to ``fh``,
    where ``obj`` may hold ``io._NameRows`` in place of lists of names.
    Those rows are streamed, one piece a row, so a linking-system
    certificate is never one string in memory; any other value is one piece."""
    fh.writelines(lio._json_pieces(obj))
    fh.write("\n")


def _write_out(path: str, obj: dict) -> None:
    """Write ``obj`` to the file at ``path``, one system call per SCRATCH_BYTES."""
    with open(path, "w", encoding="utf-8", buffering=SCRATCH_BYTES) as fh:
        _write_json(fh, obj)


def _report(args, kind: str, payload, input_echo: dict, text_lines: list[str],
            code: int) -> int:
    """Report a result as a ``kind`` certificate of ``payload()`` with
    ``input_echo``: write it to ``--out``, if given, and emit it or the
    text lines; return ``code``.  Every certificate a command makes is made
    here, at most once, and only when ``--out`` or ``--output json`` needs it."""
    cert = functools.cache(lambda: lio.certificate(kind, payload(), input_echo))
    if args.out:
        _write_out(args.out, cert())
    _emit(args, cert, text_lines)
    return code


def _cmd_group(args) -> int:
    G = _parse_group(args.group)
    info = {
        "spec": G.spec,
        "order": G.order,
        "abelian": G.abelian,
        "exponent": exponent(G),
        "center_order": center(G).order,
    }
    if G.abelian:
        info["rank"] = abelian_rank(G)
    _emit(args, lambda: info, [f"{k}: {v}" for k, v in info.items()])
    return 0


def _verify(args, kind, read, to_json, text_lines, canonical=None) -> int:
    """The verify step of every ``verify`` command: ``read`` the payload of
    the ``kind`` certificate in ``args.file`` and emit ``to_json`` or
    ``text_lines`` of what it returns (exit 0), or print one ``verification
    failed: ...`` line on a ValueError (exit 1).  Malformed JSON is not
    caught here, so it stays a usage error (exit 2).  When ``canonical`` of
    the file's text returns an object, that object is what the file holds
    and the file is not parsed; when it returns None, the file is."""
    text = _read_text(args.file)
    found = canonical(text) if canonical else None
    if found is None:
        obj = _load_json(text)
        del text  # only the parsed document is kept while it is read
        try:
            found = read(_payload_of(obj, kind))
        except ValueError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 1
    _emit(args, lambda: to_json(found), text_lines(found))
    return 0


def _cmd_ds_verify(args) -> int:
    return _verify(args, "difference-set", lio.record_from_json, lio.record_to_json,
                   lambda record: [f"difference set with parameters {record.params.as_tuple()}"])


def _cmd_link_verify(args) -> int:
    return _verify(args, "linking-system", lio.system_from_json, lio._system_payload, lambda s: [
        f"reduced {s.params.as_tuple()} linking system of size {s.size}",
        f"(mu, nu) = {s.munu.as_tuple()}",
        f"reversibility profile: {reversibility_profile(s)}"], canonical=lio.canonical_system)


def _cmd_dm_construct(args) -> int:
    rows = _integer(args.rows, "--rows")
    G = _parse_group(args.group)
    M = dm_auto(G, rows)
    if M is None:
        print(f"no difference matrix with {rows} rows exists over {json.dumps(G.spec)}",
              file=sys.stderr)
        return 1
    return _report(args, "difference-matrix", lambda: lio.dm_to_json(M), {"rows": rows},
                   [f"({G.spec}, {M.num_rows}, 1)-difference matrix; verified"], 0)


def _cmd_dm_verify(args) -> int:
    return _verify(args, "difference-matrix", lio.dm_from_json, lio.dm_to_json, lambda M: [
        f"verified ({M.group.spec}, {M.num_rows}, {M.lam})-difference matrix"])


def _cmd_bent_kerdock(args) -> int:
    d = _integer(args.d, "-d")
    fns = kerdock_bent_set(d)
    return _report(args, "bent-set", lambda: lio.bent_set_to_json(fns), {"d": d},
                   [f"verified bent set of size {len(fns)} on arity {fns[0].arity}"], 0)


def _cmd_bent_verify(args) -> int:
    return _verify(args, "bent-set", lio.bent_set_from_json,
                   lambda fns: {"arity": fns[0].arity, "size": len(fns), "bent_set": True},
                   lambda fns: [f"verified bent set of size {len(fns)}"])


def _cmd_build(args) -> int:
    if args.family in ("general", "improved") and not args.group:
        raise ValueError("--group is required for this family")
    if args.family in ("tyken", "nonrev") and args.d is None:
        raise ValueError("-d is required for this family")
    if args.family == "tyken" and not args.group:
        raise ValueError("--group (the abelian factor K) is required for tyken")
    if args.family in ("general", "improved") and args.d is not None:
        raise ValueError("-d does not apply to this family")
    if args.family == "nonrev" and args.group is not None:
        raise ValueError("--group does not apply to nonrev")
    d = None if args.d is None else _integer(args.d, "-d")
    if args.family == "general":
        system = build_general(_parse_group(args.group))
    elif args.family == "improved":
        system = build_improved(_parse_group(args.group))
    elif args.family == "tyken":
        system = build_tyken(d, _parse_group(args.group))
    else:
        system = build_nonreversible(d)
    lines = [f"verified reduced {system.params.as_tuple()} linking system of size {system.size}",
             f"reversibility profile: {reversibility_profile(system)}"]
    return _report(args, "linking-system", lambda: lio._system_payload(system),
                   {"family": args.family}, lines, 0)


def _census(args, factors: list[int], ell: int):
    """The census of size-``ell`` systems of (16, 6, 2) difference sets in
    the abelian group of ``factors``, on ``--jobs`` worker processes."""
    jobs = _integer("1" if args.jobs is None else args.jobs, "--jobs")
    return census_systems(make_abelian(factors), 6, ell, jobs=jobs)


def _cmd_census(args) -> int:
    result = _census(args, [4, 4], 3)
    payload = lio.census_payload(result.graph.group, result.systems, result.max_size,
                                 result.runtime_seconds)
    counts = result.counts
    return _report(args, "census-report", lambda: payload, {"target": "z42"},
                   [f"size-3 reduced linking systems in Z4^2: {result.count}",
                    f"maximum system size: {result.max_size}",
                    f"digest: {payload['digest']}",
                    f"vertices: {counts['vertices']}, linked directed pairs: "
                    f"{counts['linked_pairs']}, pairs re-verified: {counts['verified_pairs']}, "
                    f"cliques: {counts['cliques']}",
                    f"runtime: {result.runtime_seconds:.1f}s"], 0 if result.count else 1)


def _cmd_nonexist(args) -> int:
    if args.target == "z8z2":
        if args.group is not None or args.mode is not None:
            raise ValueError("nonexist z8z2 takes no --group, --full or --pruned")
        result = _census(args, [8, 2], 2)
        payload = {"group": result.graph.group.spec, "difference_sets": len(result.graph.records),
                   "size2_systems": result.count, "max_system_size": result.max_size,
                   "runtime_seconds": result.runtime_seconds}
        return _report(args, "nonexistence-report", lambda: payload, {"target": args.target},
                       [f"difference sets found: {payload['difference_sets']}",
                        f"size-2 systems: {result.count} (expected 0)"],
                       0 if result.count else 1)
    if args.jobs is not None:
        raise ValueError(f"nonexist {args.target} takes no --jobs")
    mode = args.mode or "pruned"
    if args.target == "mcfarland-q3":
        groups = [args.group] if args.group else ['{"abelian": [3, 3, 5]}']
        sweep = mcfarland_pair_sweep
    else:
        groups = ([args.group] if args.group
                  else ['{"abelian": [3, 3, 2, 2]}', '{"abelian": [3, 3, 4]}'])
        sweep = spence_pair_sweep
    reports = [sweep(_parse_group(gtext), mode=mode) for gtext in groups]
    return _report(args, "nonexistence-report", lambda: {"reports": list(map(vars, reports))},
                   {"target": args.target, "mode": mode},
                   [f"{r.family} over {r.group_spec}: {r.linked_pairs} linked pairs "
                    f"of {r.pairs_tested} tested ({r.mode})" for r in reports],
                   1 if all(r.all_pairs_fail for r in reports) else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkset",
        description="Constructions, verification, and exhaustive search for "
                    "linking systems of difference sets in finite groups.",
    )
    parser.add_argument("--version", action="version",
                        version=f"linkset {__version__} (format {lio.FORMAT_VERSION})")
    parser.add_argument("--output", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="inspect a group spec")
    p.add_argument("group", help='e.g. \'{"abelian": [4, 4]}\' or "D4"')
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("ds", help="difference-set records")
    ds_sub = p.add_subparsers(dest="subcommand", required=True)
    q = ds_sub.add_parser("verify")
    q.add_argument("file")
    q.set_defaults(func=_cmd_ds_verify)

    p = sub.add_parser("link", help="linking-system certificates")
    link_sub = p.add_subparsers(dest="subcommand", required=True)
    q = link_sub.add_parser("verify-reduced")
    q.add_argument("file")
    q.set_defaults(func=_cmd_link_verify)

    p = sub.add_parser("dm", help="difference matrices")
    dm_sub = p.add_subparsers(dest="subcommand", required=True)
    q = dm_sub.add_parser("construct")
    q.add_argument("--group", required=True)
    q.add_argument("--rows", required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_dm_construct)
    q = dm_sub.add_parser("verify")
    q.add_argument("file")
    q.set_defaults(func=_cmd_dm_verify)

    p = sub.add_parser("bent", help="bent sets")
    bent_sub = p.add_subparsers(dest="subcommand", required=True)
    q = bent_sub.add_parser("kerdock")
    q.add_argument("-d", required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_bent_kerdock)
    q = bent_sub.add_parser("verify")
    q.add_argument("file")
    q.set_defaults(func=_cmd_bent_verify)

    p = sub.add_parser("build", help="construct a linking system")
    p.add_argument("family", choices=["general", "improved", "tyken", "nonrev"])
    p.add_argument("--group", help="target group (or K for tyken)")
    p.add_argument("-d", help="depth parameter for tyken/nonrev")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("census", help="exhaustive linking-system census")
    p.add_argument("target", choices=["z42"])
    p.add_argument("--jobs", help="census worker processes (default 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("nonexist", help="nonexistence sweeps (exit 1 = confirmed empty)")
    p.add_argument("target", choices=["z8z2", "mcfarland-q3", "spence-d1"])
    p.add_argument("--group")
    p.add_argument("--jobs", help="z8z2 census worker processes (default 1)")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--full", dest="mode", action="store_const", const="full")
    grp.add_argument("--pruned", dest="mode", action="store_const", const="pruned")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_nonexist, mode=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``run`` of the process and
    reused: parsing keeps no state in the parser, and each ``parse_args``
    returns a fresh namespace."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SearchInconclusive as exc:
        print(exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
