"""The three benchmark workloads: their inputs, parts and verification.

A workload is a list of parts.  One unit of work runs every part once, in
order, after emptying the pairwise caches as a fresh process would have
them.  Building a workload is the set-up that ``setup_s`` times; each part's
``run()`` is timed; ``verify(out)`` (never timed) returns the part's
``(attempted, failed)`` case counts, and ``planned`` is what a part that
raises counts as failed.  ``final_check()`` runs once per benchmark run,
after timing.  ``jordanblocks`` must be importable before this module is
imported; ``run.py`` puts the checkout's ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from jordanblocks import cli, operators, partitions, rules, sweep
from jordanblocks.operators import ModuleSpec
from jordanblocks.partitions import Family, GroupContext, JordanType

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_TABLE = ROOT / "tests" / "data" / "reference_table.txt"

PAIR_CACHES = (rules.tensor_pair_type, rules.wedge_block_type, rules.sym_block_type)


def clear_pair_caches() -> None:
    """Empty the three pairwise caches, as in a fresh process."""
    for cache in PAIR_CACHES:
        cache.cache_clear()


@dataclass(frozen=True)
class Part:
    name: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[int, int]]
    planned: int


@dataclass(frozen=True)
class Workload:
    parts: tuple[Part, ...]
    final_check: Callable[[], tuple[int, int]] = lambda: (0, 0)

    def start_unit(self) -> None:
        clear_pair_caches()


def parse_modules(text: str) -> tuple[ModuleSpec, ...]:
    return tuple(ModuleSpec.parse(m) for m in text.split(","))


# -- sweep ---------------------------------------------------------------------------

# Acceptance-style verification at threads=1, rescaled so that one unit takes
# a few seconds: many small eliminations, so per-call overhead dominates.  The
# SL range is split by prime so that each part is timed often in a run.
SWEEP_CONFIGS = tuple(
    sweep.SweepConfig(
        max_n=8,
        primes=(p,),
        modules=parse_modules("sl,psl,adjoint-int"),
        unipotent_agreement=True,
        threads=1,
    )
    for p in (2, 3, 5, 7)
) + (
    sweep.SweepConfig(
        max_n=8,
        primes=(3, 5),
        families=(Family.SP,),
        modules=parse_modules("l_omega2"),
        threads=1,
    ),
    sweep.SweepConfig(
        max_n=7,
        primes=(3, 5),
        families=(Family.SO,),
        modules=parse_modules("l_2omega1"),
        threads=1,
    ),
)
# ``sweep --check-lemmas`` defaults: identity depth 2, dimension bound 12,
# over the sweep's primes
LEMMA_PRIMES = (2, 3, 5, 7)
LEMMA_BETA_MAX = 2
LEMMA_N_MAX = 12


def count_sweep_checks(cfg: sweep.SweepConfig) -> tuple[int, int, int]:
    """(checked, skipped, agreement) comparison counts a sweep should make.

    Built from the public enumeration, admissibility and query validation:
    a (partition, module) pair is checked when ``validate_query`` accepts it
    and skipped when it rejects it; ``agreement`` counts the unipotent
    agreement comparisons (gl and sl, plus psl when p divides n).
    """
    checked = skipped = agreement = 0
    for family in cfg.families:
        for n in range(2, cfg.max_n + 1):
            for p in cfg.primes:
                try:
                    ctx = GroupContext(family, n, p)
                except ValueError:
                    continue
                for jt in sweep.enumerate_partitions(n):
                    if not partitions.is_admissible(jt, ctx):
                        continue
                    for module in cfg.modules:
                        try:
                            operators.validate_query(jt, ctx, module)
                        except ValueError:
                            skipped += 1
                        else:
                            checked += 1
                    if cfg.unipotent_agreement and family is Family.SL:
                        agreement += 3 if n % p == 0 else 2
    return checked, skipped, agreement


def _sweep_part(cfg: sweep.SweepConfig) -> Part:
    checked, _, agreement = count_sweep_checks(cfg)
    planned = max(1, checked + agreement)

    def verify(reports) -> tuple[int, int]:
        if checked == 0:
            return planned, planned  # a sweep that compared nothing fails
        return planned, len(reports)

    families = ",".join(f.value for f in cfg.families)
    primes = ",".join(map(str, cfg.primes))
    name = f"run_sweep {families} n<={cfg.max_n} p={primes}"
    return Part(name, lambda: sweep.run_sweep(cfg), verify, planned)


def _lemma_part(p: int) -> Part:
    return Part(
        f"verify_lemma_identities p={p}",
        lambda: sweep.verify_lemma_identities(p, LEMMA_BETA_MAX, LEMMA_N_MAX),
        lambda ok: (1, 0 if ok is True else 1),
        1,
    )


def sweep_workload(configs=SWEEP_CONFIGS, lemma_primes=LEMMA_PRIMES) -> Workload:
    """``run_sweep`` over each config, then the lemma identities per prime."""
    parts = [_sweep_part(cfg) for cfg in configs]
    parts += [_lemma_part(p) for p in lemma_primes]
    return Workload(tuple(parts))


# -- oracle_large ----------------------------------------------------------------------

# One slot per query: (family, module, p, unipotent, partitions of one n with
# similar measured oracle cost).  The seed picks one partition per slot.  The
# unipotent slot only offers partitions where p^(valuation+1) divides n, so
# its type must equal the nilpotent closed form.
ORACLE_SLOTS = (
    ("SL", "psl", 3, False, ("6,7,8", "5,8,8", "4,8,9", "5,7,9")),
    ("SL", "psl", 2, False, ("3,8,9", "5,7,8")),
    ("SL", "psl", 5, False, ("4,7,9", "3,8,9")),
    ("SL", "psl", 3, True, ("2,7,9", "3,7,8", "4,5,9")),
    ("Sp", "l_omega2", 3, False, ("2,9^2", "6,7^2")),
    ("SO", "l_2omega1", 3, False, ("7,11", "1^2,3,13")),
)


def _oracle_part(jt: JordanType, ctx: GroupContext, spec: ModuleSpec, unipotent: bool) -> Part:
    expected = []  # closed form, computed at the first verification

    def verify(answer) -> tuple[int, int]:
        if not expected:
            expected.append(rules.closed_form_type(jt, ctx, spec))
        return 1, 0 if answer == expected[0] else 1

    kind = " unipotent" if unipotent else ""
    name = f"oracle_type {ctx.family.value} {spec} {jt} p={ctx.p}{kind}"
    return Part(
        name, lambda: operators.oracle_type(jt, ctx, spec, unipotent=unipotent), verify, 1
    )


def oracle_workload(seed: int, slots=ORACLE_SLOTS) -> Workload:
    """Single oracle queries on large matrices, each with a fresh session."""
    rng = random.Random(seed)
    parts = []
    for family, module, p, unipotent, choices in slots:
        jt = JordanType.parse(rng.choice(choices))
        ctx = GroupContext(Family.parse(family), jt.total_dim, p)
        spec = ModuleSpec.parse(module)
        operators.validate_query(jt, ctx, spec)
        parts.append(_oracle_part(jt, ctx, spec, unipotent))
    return Workload(tuple(parts))


# -- rules_table -----------------------------------------------------------------------

TABLE_N_MAX = 15
TABLE_PRIMES = (2, 3, 5)
TABLE_MODULES = "gl,sl,psl,wedge2,sym2"
# sha256 of the TSV table for n <= TABLE_N_MAX, recorded when the benchmark was added
TABLE_SHA256 = "2ac430ad192f511ceebbf38a0dc6606eba7fc9499c021686ed2c330dda712c2e"


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def _paper_table_check(reference: str) -> tuple[int, int]:
    """``table --paper-table`` must reproduce the reference file byte for byte."""
    status, text = run_cli(["table", "--paper-table"])
    lines = len(reference.splitlines())
    return lines, 0 if status == cli.EXIT_OK and text == reference else lines


def rules_table_workload(n_max: int = TABLE_N_MAX, digest: str = TABLE_SHA256) -> Workload:
    """``jordanblocks table`` over a range, as one CLI call."""
    argv = ["table", "--n-max", str(n_max), "--primes", ",".join(map(str, TABLE_PRIMES))]
    argv += ["--modules", TABLE_MODULES, "--format", "tsv"]
    # one header line plus one row per (n, p, partition); SL admits all
    lines = 1 + len(TABLE_PRIMES) * sum(
        1 for n in range(2, n_max + 1) for _ in sweep.enumerate_partitions(n)
    )
    reference = REFERENCE_TABLE.read_text()

    def verify(out) -> tuple[int, int]:
        status, text = out
        ok = (
            status == cli.EXIT_OK
            and len(text.splitlines()) == lines
            and hashlib.sha256(text.encode()).hexdigest() == digest
        )
        return lines, 0 if ok else lines

    part = Part("cli table " + " ".join(argv[1:]), lambda: run_cli(argv), verify, lines)
    return Workload((part,), lambda: _paper_table_check(reference))


WORKLOADS = ("sweep", "oracle_large", "rules_table")


def build(name: str, seed: int) -> Workload:
    """The named workload with its inputs made from ``seed``.

    ``sweep`` and ``rules_table`` cover exhaustive ranges, so only
    ``oracle_large`` depends on the seed.
    """
    if name == "sweep":
        return sweep_workload()
    if name == "oracle_large":
        return oracle_workload(seed)
    if name == "rules_table":
        return rules_table_workload()
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
