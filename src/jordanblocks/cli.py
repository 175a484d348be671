"""Command-line front end: single queries, table generation, sweeps.

Exit codes: 0 success, 1 discrepancy or failed check, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .operators import ModuleSpec, oracle_type
from .partitions import Family, GroupContext, JordanType
from .rules import closed_form_type
from .sweep import (
    DEFAULT_MODULES,
    SweepConfig,
    admissible_cases,
    run_sweep,
    verify_lemma_identities,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2


def _parse_list(option: str, text: str, parse) -> tuple:
    """Comma separated values of one option.  An empty list is an error, and
    so is a value listed twice, compared after parsing so that aliases such
    as ``tensor`` and ``gl`` count as one value."""
    values: list = []
    for item in filter(None, (x.strip() for x in text.split(","))):
        value = parse(item)
        if value in values:
            raise ValueError(f"{option} lists {item} twice")
        values.append(value)
    if not values:
        raise ValueError(f"{option} needs at least one value")
    return tuple(values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanblocks",
        description=(
            "Jordan block sizes of nilpotent and unipotent elements of classical "
            "groups on derived modules, over GF(p)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("type", help="Jordan type of one element on one module")
    q.add_argument("--partition", required=True, help="blocks on V, e.g. 2,3 or 1^2,3")
    q.add_argument("--p", required=True, type=int, help="prime characteristic")
    q.add_argument("--family", default="SL", help="SL, Sp or SO")
    q.add_argument("--module", required=True, help="e.g. gl, sl, psl, wedge2, l_omega2")
    q.add_argument(
        "--engine",
        choices=("rules", "oracle", "both"),
        default="rules",
        help="closed rules, matrix oracle, or both with a verdict",
    )
    q.add_argument("--unipotent", action="store_true", help="query a unipotent element (oracle engine only)")

    t = sub.add_parser("table", help="tabulate types over ranges of n and p")
    t.add_argument("--n-min", type=int, default=2)
    t.add_argument("--n-max", type=int, default=5)
    t.add_argument("--primes", default="2,3,5", help="comma separated (default 2,3,5)")
    t.add_argument("--family", default="SL")
    t.add_argument("--modules", default="gl,psl", help="comma separated (default gl,psl)")
    t.add_argument(
        "--paper-table",
        action="store_true",
        help="keep only the rows with p dividing n; with the other options at their "
        "defaults this prints the reference table",
    )
    t.add_argument("--format", choices=("text", "tsv", "json"), default="text")

    s = sub.add_parser("sweep", help="compare rules against the oracle over a range")
    s.add_argument("--max-n", type=int, default=None, help="default 10 for SL only, else 8")
    s.add_argument("--primes", default=None, help="default 2,3,5,7 (odd only with Sp/SO)")
    s.add_argument("--families", default="SL")
    s.add_argument("--modules", default=None, help="default per family")
    s.add_argument("--fail-fast", action="store_true")
    s.add_argument("--unipotent-checks", action="store_true", help="add unipotent agreement checks")
    s.add_argument("--mutate", action="store_true", help="corrupt rule outputs (sensitivity check)")
    s.add_argument("--check-lemmas", action="store_true", help="also verify the explicit identities")
    s.add_argument("--beta-max", type=int, default=2, help="identity depth for --check-lemmas")
    s.add_argument("--lemma-n-max", type=int, default=12, help="dimension bound for --check-lemmas")
    return parser


def _cmd_type(args) -> int:
    jt = JordanType.parse(args.partition)
    family = Family.parse(args.family)
    ctx = GroupContext(family, jt.total_dim, args.p)
    module = ModuleSpec.parse(args.module)
    if args.engine in ("rules", "both") and args.unipotent:
        raise ValueError("--unipotent requires --engine oracle")
    if args.engine == "rules":
        print(closed_form_type(jt, ctx, module))
        return EXIT_OK
    if args.engine == "oracle":
        print(oracle_type(jt, ctx, module, unipotent=args.unipotent))
        return EXIT_OK
    by_rules = closed_form_type(jt, ctx, module)
    by_oracle = oracle_type(jt, ctx, module)
    print(f"rules:  {by_rules}")
    print(f"oracle: {by_oracle}")
    if by_rules == by_oracle:
        print("AGREE")
        return EXIT_OK
    print("DISAGREE")
    return EXIT_DISCREPANCY


def _cmd_table(args, out) -> int:
    modules = _parse_list("--modules", args.modules, ModuleSpec.parse)
    family = Family.parse(args.family)
    primes = _parse_list("--primes", args.primes, int)
    cases = list(admissible_cases((family,), range(args.n_min, args.n_max + 1), primes))
    if not cases:
        raise ValueError(
            f"table has no rows: no {family.value} case with n in "
            f"{args.n_min}..{args.n_max} and p in {','.join(map(str, primes))}"
        )
    rows = [
        {
            "family": ctx.family.value,
            "n": ctx.n,
            "p": ctx.p,
            "partition": str(jt),
            "types": {str(m): str(closed_form_type(jt, ctx, m)) for m in modules},
        }
        for ctx, jt in cases
        if not (args.paper_table and ctx.n % ctx.p)
    ]
    headers = [str(m) for m in modules]
    if args.format == "json":
        for row in rows:
            print(json.dumps(row, sort_keys=True), file=out)
        return EXIT_OK
    if args.format == "tsv":
        print("\t".join(["family", "n", "p", "partition", *headers]), file=out)
        for row in rows:
            cells = [row["family"], str(row["n"]), str(row["p"]), row["partition"]]
            cells += [row["types"][h] for h in headers]
            print("\t".join(cells), file=out)
        return EXIT_OK
    # plain text: one aligned block per (n, p) group, groups in row order
    group = None
    block: list[list[str]] = []

    def flush():
        if not block:
            return
        widths = [max(len(r[i]) for r in block) for i in range(len(block[0]))]
        for r in block:
            print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(), file=out)
        print(file=out)

    for row in rows:
        key = (row["n"], row["p"])
        if key != group:
            flush()
            block = [["partition", *headers]]
            group = key
            print(f"n={key[0]} p={key[1]}", file=out)
        block.append([row["partition"], *[row["types"][h] for h in headers]])
    flush()
    return EXIT_OK


def _cmd_sweep(args, out, err) -> int:
    families = _parse_list("--families", args.families, Family.parse)
    if args.max_n is not None:
        max_n = args.max_n
    else:
        max_n = 10 if set(families) == {Family.SL} else 8
    if args.primes is not None:
        primes = _parse_list("--primes", args.primes, int)
    else:
        primes = (2, 3, 5, 7) if set(families) == {Family.SL} else (3, 5, 7)
    if args.modules is not None:
        modules = _parse_list("--modules", args.modules, ModuleSpec.parse)
    else:
        modules = tuple(m for family in families for m in DEFAULT_MODULES[family])
    cfg = SweepConfig(
        max_n=max_n,
        primes=primes,
        families=families,
        modules=modules,
        fail_fast=args.fail_fast,
        unipotent_agreement=args.unipotent_checks,
        mutate=args.mutate,
    )
    # the lemma checks run first, so bounds that check nothing fail at once
    lemmas_ok = not args.check_lemmas or all(
        verify_lemma_identities(p, args.beta_max, args.lemma_n_max) for p in primes
    )
    reports = run_sweep(cfg)
    for report in reports:
        print(report.to_json(), file=out)
    status = EXIT_OK if not reports and lemmas_ok else EXIT_DISCREPANCY
    summary = f"sweep: {len(reports)} discrepancy(ies)"
    if args.check_lemmas:
        summary += f"; lemma identities {'OK' if lemmas_ok else 'FAILED'}"
    print(summary, file=err)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "type":
            return _cmd_type(args)
        if args.command == "table":
            return _cmd_table(args, sys.stdout)
        return _cmd_sweep(args, sys.stdout, sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
