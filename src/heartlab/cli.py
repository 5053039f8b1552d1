"""Command-line surface: audit, heart, probe, zoo.

Machine-readable JSON goes to stdout; a one-line human summary goes to
stderr so pipelines stay clean.  All randomness flows from --seed (default
0), and reports are byte-stable for fixed inputs, seed and version; the
envelope timestamp is null unless --timestamp is passed, precisely so that
the default output stays reproducible.

Exit codes: audit 0 = certified, 2 = excluded, 3 = inconclusive; probe and
heart 0 on a successful run; 1 for usage, parse or degree errors everywhere,
and for a command that runs out of memory ("error: out of memory: ..." on
stderr); 4 when an internal check fails (a witness or End verification, an
element closure past its limit, or a known-order stabilizer chain that
contradicts its group's order), reported as one line on stderr.  A MeatAxe that reaches
no verdict is not a failure: its status reads "inconclusive".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone

from . import __version__
from .audit import CITATIONS, FACTS, audit
from .perms import ClosureLimitError
from .probe import SAMPLE_BUDGET, group_cycle_types, parse_poly, probe
from .reps import endomorphism_algebra, heart, is_indecomposable, is_irreducible
from .zoo import GroupSpecError, MATHIEU_DEGREES, build_group, parse_group_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCLUDED = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _envelope(args, payload: dict, citations: list[str]) -> dict:
    timestamp = datetime.now(timezone.utc).isoformat() if args.timestamp else None
    return {
        "tool": "heartlab",
        "version": __version__,
        "command": args.command_echo,
        "timestamp": timestamp,
        "payload": payload,
        "citations": citations,
    }


def _emit(args, payload: dict, citations: list[str], summary: str) -> None:
    print(json.dumps(_envelope(args, payload, citations), indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def _hex_rows(rows: list[int]) -> list[str]:
    return [format(r, "x") for r in rows]


def _cmd_audit(args) -> int:
    group_id = parse_group_spec(args.group)
    report = audit(group_id, seed=args.seed, deep=args.deep)
    payload = report.to_payload()
    summary = f"audit {report.group}: {report.verdict}"
    if report.reason:
        summary += f" ({report.reason})"
    _emit(args, payload, report.citations, summary)
    if report.verdict == "certified":
        return EXIT_OK
    if report.verdict == "excluded":
        return EXIT_EXCLUDED
    return EXIT_INCONCLUSIVE


def _cmd_heart(args) -> int:
    group_id = parse_group_spec(args.group)
    group = build_group(group_id)
    rep = heart(group)
    payload: dict = {
        "group": group_id.name(),
        "degree": group.degree,
        "heart_dimension": rep.dimension,
    }
    # solved once, shared by the --endo entry and the idempotent search
    endo = endomorphism_algebra(rep) if args.endo or args.indecomposable else None
    if args.endo:
        payload["endo_dimension"] = endo.dimension
    if args.meataxe:
        verdict = is_irreducible(rep, args.seed)
        entry: dict = {"status": verdict.status, "attempts": verdict.attempts}
        if verdict.witness is not None:
            entry["witness"] = {
                "dimension": verdict.witness.dimension,
                "ambient": verdict.witness.ambient,
                "basis_rows_hex": _hex_rows(verdict.witness.basis),
            }
        payload["irreducibility"] = entry
    if args.indecomposable:
        verdict = is_indecomposable(rep, endo)
        entry = {"status": verdict.status, "endo_dimension": verdict.endo_dimension}
        if verdict.witness is not None:
            entry["idempotent_rows_hex"] = _hex_rows(verdict.witness.rows)
        payload["indecomposability"] = entry
    bits = [f"dim {rep.dimension}"]
    if "endo_dimension" in payload:
        bits.append(f"endo {payload['endo_dimension']}")
    if "irreducibility" in payload:
        bits.append(payload["irreducibility"]["status"])
    if "indecomposability" in payload:
        bits.append(payload["indecomposability"]["status"])
    _emit(args, payload, [], f"heart {group_id.name()}: " + ", ".join(bits))
    return EXIT_OK


def _split_candidates(text: str) -> list[str]:
    """Split at the commas outside parentheses: "PSL(3,2),A7" is two names."""
    return re.split(r",(?![^()]*\))", text) if text else []


def _cmd_probe(args) -> int:
    for option, value in (("--primes", args.primes), ("--budget", args.budget)):
        if value < 1:
            raise ValueError(f"{option} must be positive, got {value}")
    texts = []
    if args.poly is not None:
        texts.append(args.poly)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            texts.extend(line.strip() for line in handle if line.strip())
    if not texts:
        raise GroupSpecError("no polynomial given (positional or --file)")
    candidates = [parse_group_spec(c) for c in _split_candidates(args.candidates)]
    reports = []
    type_sets: dict = {}  # one cycle-type set per candidate for this command only
    for text in texts:
        poly = parse_poly(text)
        for candidate in candidates:
            if candidate.natural_degree != poly.degree:
                raise GroupSpecError(
                    f"candidate {candidate.name()} acts on {candidate.natural_degree} "
                    f"points but deg f = {poly.degree}"
                )
        for candidate in candidates:
            if candidate not in type_sets:
                type_sets[candidate] = group_cycle_types(
                    candidate, budget=args.budget, seed=args.seed
                )
        reports.append(
            probe(poly, args.primes, candidates, type_sets, seed=args.seed)
        )
    payload = reports[0].to_payload() if len(reports) == 1 else {
        "reports": [r.to_payload() for r in reports]
    }
    statuses = [f"{v.group}={v.status}" for r in reports for v in r.verdicts]
    summary = f"probe over {args.primes} primes: " + (", ".join(statuses) or "no candidates")
    _emit(args, payload, [], summary)
    return EXIT_OK


def _cmd_zoo(args) -> int:
    families = [
        {"family": "mathieu", "names": [f"M{n}" for n in MATHIEU_DEGREES]},
        {"family": "symmetric", "names": ["S<n>, n >= 2"]},
        {"family": "alternating", "names": ["A<n>, n >= 3"]},
        {"family": "psl", "names": ["PSL(m,q), m >= 2, q a prime power, q^m <= 1e5"]},
        {"family": "pgl", "names": ["PGL(m,q), m >= 2, q a prime power, q^m <= 1e5"]},
        {"family": "cyclic", "names": ["C<n>, n >= 2 (control family)"]},
        {"family": "dihedral", "names": ["D<n>, n >= 3 (control family)"]},
    ]
    facts = [
        {
            "family": f.family,
            "selector": f.selector,
            "bound": f.bound_expr,
            "flags": sorted(f.flags),
            "cover_rule": f.cover_rule,
            "citation": f.citation,
            "citation_text": CITATIONS[f.citation],
        }
        for f in FACTS
    ]
    payload = {"families": families, "facts": facts}
    _emit(args, payload, sorted(CITATIONS), f"zoo: {len(facts)} fact records")
    return EXIT_OK


def _add_audit(sub) -> None:
    p_audit = sub.add_parser("audit", help="audit certification hypotheses for a group")
    p_audit.add_argument("group", help="group name, e.g. M23 or PSL(3,3)")
    p_audit.add_argument("--deep", action="store_true",
                         help="also record MeatAxe/indecomposability evidence")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--timestamp", action="store_true")
    p_audit.set_defaults(func=_cmd_audit)


def _add_heart(sub) -> None:
    p_heart = sub.add_parser("heart", help="heart module analyses for a group")
    p_heart.add_argument("group")
    p_heart.add_argument("--endo", action="store_true", help="endomorphism algebra dimension")
    p_heart.add_argument("--meataxe", action="store_true", help="irreducibility with witness")
    p_heart.add_argument("--indecomposable", action="store_true", help="idempotent search")
    p_heart.add_argument("--seed", type=int, default=0)
    p_heart.add_argument("--timestamp", action="store_true")
    p_heart.set_defaults(func=_cmd_heart)


def _add_probe(sub) -> None:
    p_probe = sub.add_parser("probe", help="Frobenius cycle-type probe of a polynomial")
    p_probe.add_argument("poly", nargs="?", default=None, help='polynomial, e.g. "x^5-x-1"')
    p_probe.add_argument("--file", default=None, help="file with one polynomial per line")
    p_probe.add_argument("--primes", type=int, default=50)
    p_probe.add_argument("--candidates", default="", help="comma-separated group names")
    p_probe.add_argument("--budget", type=int, default=SAMPLE_BUDGET,
                         help="sample budget for groups too large to enumerate")
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--timestamp", action="store_true")
    p_probe.set_defaults(func=_cmd_probe)


def _add_zoo(sub) -> None:
    p_zoo = sub.add_parser("zoo", help="list supported groups and fact-table citations")
    p_zoo.add_argument("--timestamp", action="store_true")
    p_zoo.set_defaults(func=_cmd_zoo)


SUBCOMMANDS = {"audit": _add_audit, "heart": _add_heart, "probe": _add_probe, "zoo": _add_zoo}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given one name in ``SUBCOMMANDS``,
    of that subcommand alone.  argparse builds a help formatter for every
    argument it adds, so one subcommand's parser costs a fraction of the
    full one; its top-level usage still lists all four subcommands, so a
    usage error prints the same text with either."""
    parser = argparse.ArgumentParser(
        prog="heartlab",
        description="Permutation groups, mod-2 hearts, and certified jacobian-endomorphism audits.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in SUBCOMMANDS.values():
            add(sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(SUBCOMMANDS) + "}")
        SUBCOMMANDS[command](sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a first argument that names a subcommand is that subcommand; anything
    # else (none, -h, an unknown name) gets the full parser and its message
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.command_echo = ["heartlab", *argv]
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GroupSpecError and PolyParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ClosureLimitError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        # a backstop: no command predicts its memory yet
        print(f"error: out of memory: {' '.join(argv)}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
