"""Command-line interface.

Subcommands: bounds, enumerate, check-family, search-max, verify-lemma,
double-count, hunt.  Exit codes: 0 all checks passed, 1 counterexample or
internal error, 2 usage/configuration error.  All JSON output is emitted
with sorted keys so equal configurations produce byte-identical reports
up to the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .bounds import (
    cross_bound,
    ekr_bound,
    frankl_bound,
    hm_bound,
    nontrivial_bound,
    star_bound,
    star_bound_proven,
    two_sided_bound,
)
from .conjectures import _CONJECTURES, CELL_ERROR, ParameterGrid, hunt
from .doublecount import double_count_check, require_countable
from .families import (
    Family,
    Profile,
    Universe,
    candidate_sets,
    is_intersecting,
    is_trivially_intersecting,
    is_two_sided_intersecting,
    iter_bits,
    load_family,
    normalize_profiles,
    profile_of,
    trivial_witness,
)
from .search import VERTEX_CAP, Constraint, SearchBudget, _capped_candidates, max_intersecting
from .verifiers import EXHAUSTIVE, SAMPLED, verify_check


def parse_profiles(text: str) -> list[Profile]:
    """Comma pairs separated by semicolons; a bare integer means (k, 0)."""
    out = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = [int(x) for x in token.split(",")]
        if len(parts) == 1:
            out.append(Profile(parts[0], 0))
        elif len(parts) == 2:
            out.append(Profile(parts[0], parts[1]))
        else:
            raise ValueError(f"bad profile token {token!r}")
    if not out:
        raise ValueError("no profiles given")
    return out


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None = None) -> None:
    if args.format == "csv" and csv_rows is None:
        raise ValueError(f"{args.command} has no CSV form; use --format json or text")
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory; only hunt writes into one")
    if args.out:  # written before anything is printed, so a bad path leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        for line in text_lines:
            print(line)


def cmd_bounds(args) -> int:
    u = Universe(args.n1, args.n2)
    profiles = parse_profiles(args.profiles)
    normalize_profiles(u, profiles)
    rows: dict[str, object] = {}

    def safe(name, fn):
        if args.which != "all" and args.which != name:
            return
        try:
            rows[name] = fn()
        except ValueError as exc:
            rows[name] = f"n/a: {exc}"

    single = profiles[0] if len(profiles) == 1 else None
    safe("star", lambda: star_bound(u, profiles))
    safe("star_proven", lambda: star_bound_proven(u, profiles))
    if single is not None:
        k, l = single
        if u.n2 == 0:
            safe("ekr", lambda: ekr_bound(u.n1, k))
            safe("hm", lambda: hm_bound(u.n1, k))
            safe("cross", lambda: cross_bound(u.n1, k))
        else:
            safe("frankl", lambda: frankl_bound(u, single))
            safe("nontrivial", lambda: nontrivial_bound(u, single))
            safe("two_sided", lambda: two_sided_bound(u, single))
    payload = {
        "n1": u.n1,
        "n2": u.n2,
        "profiles": [list(p) for p in profiles],
        "bounds": rows,
    }
    text = [f"bounds for n1={u.n1} n2={u.n2} profiles={args.profiles}"]
    text += [f"  {name:<12} {value}" for name, value in rows.items()]
    csv_rows = [["bound", "value"]] + [[k, v] for k, v in rows.items()]
    _emit(args, payload, text, csv_rows)
    return 0


def cmd_enumerate(args) -> int:
    u = Universe(args.n1, args.n2)
    profiles = parse_profiles(args.profiles)
    _, masks = _capped_candidates(u, profiles, VERTEX_CAP, "vertex")  # counted before listed
    sets = [list(iter_bits(m)) for m in masks]
    payload = {"n1": u.n1, "n2": u.n2, "profiles": [list(p) for p in profiles],
               "count": len(sets), "sets": sets}
    text = [f"{len(sets)} sets"] + ["  {" + ",".join(map(str, s)) + "}" for s in sets]
    _emit(args, payload, text, [["set"]] + [[" ".join(map(str, s))] for s in sets])
    return 0


def cmd_check_family(args) -> int:
    fam = load_family(args.file)
    u = fam.universe
    report = {
        "n1": u.n1,
        "n2": u.n2,
        "size": len(fam),
        "profiles": sorted({tuple(profile_of(u, m)) for m in fam.sets}),
        "intersecting": is_intersecting(fam),
        "trivially_intersecting": is_trivially_intersecting(fam),
        "trivial_witness": trivial_witness(fam),
    }
    if u.two_part:
        report["two_sided"] = is_two_sided_intersecting(fam)
    report["profiles"] = [list(p) for p in report["profiles"]]
    text = [f"{key} = {value}" for key, value in report.items()]
    _emit(args, report, text)
    return 0


def _budget_from(args) -> SearchBudget:
    tl = args.time_limit_ms
    if tl is not None and tl <= 0:
        raise ValueError("--time-limit-ms must be positive")
    return SearchBudget(args.node_limit, None if tl is None else tl / 1000.0)


def cmd_search_max(args) -> int:
    u = Universe(args.n1, args.n2)
    profiles = parse_profiles(args.profiles)
    constraint = Constraint(args.constraint)
    result = max_intersecting(u, profiles, constraint, _budget_from(args),
                              symmetry=args.symmetry)
    payload = result.to_json()
    text = [
        f"max intersecting family: {result.max_size}"
        + ("" if result.proven_optimal else " (budget exhausted, not proven optimal)"),
        f"nodes explored: {result.nodes}",
        "witness: " + " ".join("{" + ",".join(map(str, s)) + "}"
                               for s in result.witness.to_lists()),
    ]
    _emit(args, payload, text)
    return 0


def cmd_verify_lemma(args) -> int:
    params = {}
    for name in ("n", "k", "b", "n1", "n2", "l"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.shapes:
        params["shapes"] = [list(p) for p in parse_profiles(args.shapes)]
    mode = SAMPLED if args.mode == "sampled" else EXHAUSTIVE
    if mode == SAMPLED and args.seed is None:
        raise ValueError("sampled mode needs --seed")
    report = verify_check(args.lemma, params, mode, args.seed, args.trials)
    payload = report.to_json()
    text = [
        f"check {report.check}: {'pass' if report.passed else 'FAIL'}",
        f"instances checked: {report.instances}",
        f"hypothesis rejections: {report.hypothesis_rejections}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    _emit(args, payload, text)
    return 0 if report.passed else 1


def cmd_double_count(args) -> int:
    families: list[Family] = []
    if args.family:
        families.append(load_family(args.family))
    else:
        if args.seed is None:
            raise ValueError("--random needs --seed")
        if args.n1 is None or args.profiles is None:
            raise ValueError("--random needs --n1 and --profiles")
        if args.random < 1:
            raise ValueError("without --family, --random must be at least 1")
        u = Universe(args.n1, args.n2)
        require_countable(u)  # before the pool is enumerated
        profiles = parse_profiles(args.profiles)
        pool = candidate_sets(u, profiles)
        rng = random.Random(args.seed)
        for _ in range(args.random):
            size = rng.randint(1, min(len(pool), 8))
            families.append(Family(u, tuple(sorted(rng.sample(pool, size)))))
    results = [double_count_check(f) for f in families]
    payload = {
        "families": len(results),
        "exact": sum(1 for r in results if r.exact),
        "results": [r.to_json() for r in results],
    }
    ok = all(r.exact for r in results)
    text = [f"{payload['exact']}/{payload['families']} families satisfy the identity exactly"]
    for i, r in enumerate(results):
        text.append(f"  family {i}: size={r.size} by_member={r.by_member} "
                    f"by_pair={r.by_pair} exact={r.exact}")
    _emit(args, payload, text)
    return 0 if ok else 1


def cmd_hunt(args) -> int:
    if args.format == "csv":  # before the report directory is made
        raise ValueError("hunt prints no CSV; its table is the CSV report it writes under --out")
    names = {str(c): c for c in _CONJECTURES}  # a conjecture's number, then its constraint's value
    names |= {con.value: c for c, (con, _) in _CONJECTURES.items()}
    conjecture = names.get(args.conjecture)
    if conjecture is None:
        *first, last = names
        raise ValueError(f"--conjecture must be {', '.join(first)} or {last}")
    grid = ParameterGrid.load(args.grid) if args.grid else ParameterGrid.default()
    if args.threads < 1:  # before the report directory is made
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    jsonl = os.path.join(out_dir, f"hunt-conjecture{conjecture}.jsonl")
    csv_path = os.path.join(out_dir, f"hunt-conjecture{conjecture}.csv")
    report = hunt(grid, conjecture, jsonl, csv_path, resume=args.resume,
                  workers=args.threads)
    errors = [c for c in report.cells if c.status == CELL_ERROR]
    bad = report.counterexamples + errors
    if args.format == "json":
        def brief(c):
            out = {"n1": c.cell.n1, "n2": c.cell.n2, "k": c.cell.k, "l": c.cell.l,
                   "found_max": c.found_max, "conjectured_bound": c.conjectured_bound}
            return out | ({"error": c.error} if c.error is not None else {})

        print(json.dumps({"conjecture": conjecture, "jsonl": jsonl, "csv": csv_path,
                          "cells": len(report.cells), "statuses": report.statuses,
                          "counterexamples": [brief(c) for c in report.counterexamples],
                          "errors": [brief(c) for c in errors]}, sort_keys=True, indent=2))
        return 1 if bad else 0
    print(f"hunted {len(report.cells)} cells -> {jsonl}")
    for status, count in sorted(report.statuses.items()):
        print(f"  {status}: {count}")
    for c in bad:
        print(f"  !! {c.cell}: {c.status} found_max={c.found_max} bound={c.conjectured_bound}")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekrlab",
        description="Exact bounds, searches and verifiers for intersecting families "
                    "over a two-part ground set.")
    # global flags live on the root with real defaults and on every subcommand
    # with SUPPRESS, so they are accepted on either side of the subcommand
    def add_common(p, default):
        p.add_argument("--seed", type=int, default=default(None),
                       help="seed for any sampled mode")
        p.add_argument("--threads", type=int, default=default(1),
                       help="parallel workers for hunts")
        p.add_argument("--out", default=default(None),
                       help="write the JSON report here (directory for hunt)")
        p.add_argument("--format", choices=["json", "csv", "text"], default=default("text"))

    add_common(parser, default=lambda value: value)
    common = argparse.ArgumentParser(add_help=False)
    add_common(common, default=lambda value: argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                                argparse.ArgumentParser(parents=[common], **kw))

    def add_universe(p, profiles_required=True):
        p.add_argument("--n1", type=int, required=True)
        p.add_argument("--n2", type=int, default=0)
        p.add_argument("--profiles", required=profiles_required,
                       help='comma pairs separated by semicolons, e.g. "2,2;1,3"; bare k means (k,0)')

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds")
    add_universe(p)
    p.add_argument("--which", default="all", choices=["all", "star", "star_proven", "ekr", "hm",
                                                      "cross", "frankl", "nontrivial", "two_sided"])
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("enumerate", help="list every profile-respecting set")
    add_universe(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check-family", help="classify a family file")
    p.add_argument("--file", required=True)
    p.set_defaults(fn=cmd_check_family)

    p = sub.add_parser("search-max", help="exact maximum intersecting family")
    add_universe(p)
    p.add_argument("--constraint", default="any", choices=["any", "nontrivial", "twosided"])
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--time-limit-ms", type=int, default=None)
    p.add_argument("--symmetry", action="store_true", help="orbital branching from the root")
    p.set_defaults(fn=cmd_search_max)

    p = sub.add_parser("verify-lemma", help="run one structural verifier")
    p.add_argument("lemma", help="1..9, c1, c2 or c3")
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sampled"])
    p.add_argument("--trials", type=int, default=1000)
    for name in ("n", "k", "b", "n1", "n2", "l"):
        p.add_argument(f"--{name}", type=int, default=None)
    p.add_argument("--shapes", default=None, help='rectangle shapes, e.g. "1,1;2,1"')
    p.set_defaults(fn=cmd_verify_lemma)

    p = sub.add_parser("double-count", help="check the exact counting identity")
    p.add_argument("--family", default=None, help="family JSON file")
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=0)
    p.add_argument("--profiles", default=None)
    p.add_argument("--random", type=int, default=0, help="number of random families")
    p.set_defaults(fn=cmd_double_count)

    p = sub.add_parser("hunt", help="sweep a parameter grid against a conjectured bound")
    p.add_argument("--conjecture", required=True,
                   help=" or ".join(f"{c}/{con.value}" for c, (con, _) in _CONJECTURES.items()))
    p.add_argument("--grid", default=None, help="grid JSON file (default desk-scale grid)")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already in the report; error cells run again")
    p.set_defaults(fn=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure: nonzero, but distinct from usage errors
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
