"""Systematic verification sweeps: closed rules against the matrix oracle.

A sweep enumerates partitions, runs both engines on every applicable
(partition, prime, module) triple and collects a report for every
disagreement.  An empty report list is the success criterion.  Reports
serialize to JSON lines so runs can be diffed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gfp import GFpMatrix, check_modulus, vstack
from .operators import (
    ModuleSpec,
    _OracleSession,
    distinguished_vectors,
    lift_to_tensor,
    natural_nilpotent,
    trace_functional,
    validate_query,
)
from .partitions import Family, GroupContext, JordanType, is_admissible
from .rules import closed_form_type, unipotent_matches_nilpotent_on_psl

# rank-based lemma facts need elimination on the full tensor-square operator;
# cap its dimension so the largest vector identities stay matrix-free
_RANK_FACT_DIM_CAP = 1100
_PARTITION_FACT_N_CAP = 8

DEFAULT_MODULES = {
    family: tuple(ModuleSpec.parse(name) for name in names)
    for family, names in (
        (Family.SL, ("sl", "psl")),
        (Family.SP, ("l_omega2",)),
        (Family.SO, ("l_2omega1",)),
    )
}


def enumerate_partitions(n: int) -> Iterator[JordanType]:
    """All partitions of n, reverse lexicographic on the descending form.

    For n = 4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if n < 1:
        raise ValueError("partitions are enumerated for n >= 1")

    def descend(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for k in range(min(remaining, max_part), 0, -1):
            for rest in descend(remaining - k, k):
                yield (k,) + rest

    for parts in descend(n, n):
        yield JordanType.from_sizes(parts)


@dataclass(frozen=True)
class SweepConfig:
    """Bounds and switches for one verification sweep.

    ``unipotent_agreement`` adds the unipotent-versus-nilpotent comparison
    checks.  ``mutate`` deliberately corrupts the rule outputs; a sweep under
    mutation must report discrepancies, which is the harness sensitivity
    check.  ``threads`` defaults to the JORDANBLOCKS_THREADS environment
    variable, then 1; a run uses at most one worker per CPU and per case.
    """

    max_n: int
    primes: tuple[int, ...]
    families: tuple[Family, ...] = (Family.SL,)
    modules: tuple[ModuleSpec, ...] = DEFAULT_MODULES[Family.SL]
    fail_fast: bool = False
    unipotent_agreement: bool = False
    mutate: bool = False
    threads: int | None = None

    def __post_init__(self):
        if self.max_n < 2:
            raise ValueError("max_n must be >= 2")
        for p in self.primes:
            check_modulus(p)
        if any(f in (Family.SP, Family.SO) for f in self.families) and 2 in self.primes:
            raise ValueError("sweeps over Sp or SO require odd primes only")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def resolved_threads(self) -> int:
        if self.threads is not None:
            return self.threads
        env = os.environ.get("JORDANBLOCKS_THREADS") or "1"
        if not (env.isdigit() and int(env) >= 1):
            raise ValueError(f"JORDANBLOCKS_THREADS must be a positive integer, got {env!r}")
        return int(env)


@dataclass(frozen=True)
class DiscrepancyReport:
    """One disagreement; its fields fully determine the computation."""

    partition: JordanType
    family: Family
    n: int
    p: int
    module: str
    expected: str
    actual: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "partition": str(self.partition),
                "family": self.family.value,
                "n": self.n,
                "p": self.p,
                "module": self.module,
                "expected": self.expected,
                "actual": self.actual,
            },
            sort_keys=True,
        )

    def sort_key(self):
        return (self.family.value, self.n, self.p, str(self.partition), self.module)


def admissible_cases(
    families: Iterable[Family], ns: Iterable[int], primes: Sequence[int]
) -> Iterator[tuple[GroupContext, JordanType]]:
    """Every (context, admissible partition), by family, then n, then p,
    then partition.

    Every prime passes :func:`check_modulus` before anything is enumerated,
    so a bad one raises instead of being skipped.  After that the only
    (family, n, p) skipped are those :class:`GroupContext` rejects: no group
    of that family in dimension n, or p = 2 for Sp and SO.
    """
    for p in primes:
        check_modulus(p)
    for family, n, p in itertools.product(families, ns, primes):
        try:
            ctx = GroupContext(family, n, p)
        except ValueError:
            continue
        for jt in enumerate_partitions(n):
            if is_admissible(jt, ctx):
                yield ctx, jt


def _corrupt(jt: JordanType) -> JordanType:
    # mutation hook: pad with a spurious size-1 block (always wrong dimension)
    return jt + JordanType({1: 1})


def _check_case(
    cfg: SweepConfig, ctx: GroupContext, jt: JordanType
) -> tuple[list[DiscrepancyReport], int]:
    """Reports for one case, and how many modules it compared."""
    reports: list[DiscrepancyReport] = []
    compared = 0

    def report(module: str, expected: str, actual: str):
        reports.append(DiscrepancyReport(jt, ctx.family, ctx.n, ctx.p, module, expected, actual))

    session = _OracleSession(jt, ctx, unipotent=False)
    for module in cfg.modules:
        try:
            validate_query(jt, ctx, module)
        except ValueError:
            continue  # e.g. another family's module, or adjoint-int without p^2 | n
        compared += 1
        expected = closed_form_type(jt, ctx, module)
        if cfg.mutate:
            expected = _corrupt(expected)
        try:
            actual = str(session.type_for(module))
        except Exception as exc:  # surfaced, never swallowed
            actual = f"oracle failure: {exc}"
        if str(expected) != actual:
            report(str(module), str(expected), actual)
        if cfg.fail_fast and reports:
            return reports, compared

    if cfg.unipotent_agreement and ctx.family is Family.SL:
        usession = _OracleSession(jt, ctx, unipotent=True)
        # psl differs from sl only when p | n
        for name in ("gl", "sl", "psl") if ctx.n % ctx.p == 0 else ("gl", "sl"):
            module = ModuleSpec.parse(name)
            should_agree = name != "psl" or unipotent_matches_nilpotent_on_psl(jt, ctx.p, ctx.n)
            utype = usession.type_for(module)
            etype = session.type_for(module)
            agree = utype == etype
            if agree != should_agree:
                report(
                    f"{name}:unipotent-agreement",
                    "agree" if should_agree else "differ",
                    f"agree ({utype})" if agree else f"{utype} vs {etype}",
                )
            if cfg.fail_fast and reports:
                return reports, compared
    return reports, compared


def run_sweep(cfg: SweepConfig) -> list[DiscrepancyReport]:
    """Run every configured comparison; empty result means full agreement.

    A sweep in which no (case, module) pair passes :func:`validate_query`
    compares nothing, and is an error rather than a clean run.
    """
    cases = list(admissible_cases(cfg.families, range(2, cfg.max_n + 1), cfg.primes))
    threads = min(cfg.resolved_threads(), os.cpu_count() or 1, max(1, len(cases)))
    reports: list[DiscrepancyReport] = []
    compared = 0
    # one worker runs on the calling thread; a pool's queued cases are
    # cancelled however the loop ends (fail-fast, an exception or Ctrl-C)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        results = (pool.map if pool else map)(lambda case: _check_case(cfg, *case), cases)
        for case_reports, case_compared in results:
            reports.extend(case_reports)
            compared += case_compared
            if cfg.fail_fast and reports:
                break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if not compared and not reports:
        raise ValueError("sweep compared no (case, module) pair; check families and modules")
    reports.sort(key=DiscrepancyReport.sort_key)
    if cfg.fail_fast and reports:
        return reports[:1]
    return reports


# -- explicit identity checks -----------------------------------------------------


def _binomial_congruences_hold(p: int, beta_max: int) -> bool:
    # C(p^beta - 1, t) is congruent to (-1)^t mod p
    for beta in range(beta_max + 1):
        s = p**beta
        for t in range(s):
            if math.comb(s - 1, t) % p != (-1) ** t % p:
                return False
    return True


def _vector_identities_hold(p: int, beta: int, n: int) -> bool:
    """Power identities for the distinguished vectors on a regular block.

    Works with n x n matrices throughout: a tensor coordinate vector is an
    n x n matrix X and the action is the commutator E X - X E, so even the
    largest cases never materialize an n^2 x n^2 operator.
    """
    jt = JordanType({n: 1})
    vectors = distinguished_vectors(jt, p, beta)
    e = natural_nilpotent(jt, p).matrix.a
    s = p**beta

    def apply_power(vec: GFpMatrix, k: int) -> np.ndarray:
        x = vec.a.reshape(n, n)
        for _ in range(k):
            x = (e @ x - x @ e) % p
        return x

    if apply_power(vectors.delta_prime, s).any():
        return False
    want_gamma = apply_power(vectors.delta, s - 1)
    return bool(np.array_equal(want_gamma, np.eye(n, dtype=np.int64)))


def _rank_facts_hold(p: int, jt: JordanType) -> bool:
    """Smallest block size on the tensor square is p^valuation, and the
    kernel of that power escapes the trace functional while the previous
    power's kernel does not."""
    n = jt.total_dim
    e0 = lift_to_tensor(natural_nilpotent(jt, p).matrix).matrix
    val = jt.gcd_valuation(p)
    s = p**val
    nn = n * n
    t = nn - e0.rank()  # number of blocks on the tensor square
    power_prev = e0 ** (s - 1)
    power = power_prev @ e0
    rank_s = power.rank()
    if rank_s != nn - s * t:
        return False  # some block smaller than p^valuation
    rank_s1 = (power @ e0).rank()
    if rank_s1 - nn + (s + 1) * t < 1:
        return False  # no block of size exactly p^valuation
    phi = trace_functional(n, p)
    if s > 1 and vstack([power_prev, phi]).rank() != power_prev.rank():
        return False  # kernel of the previous power must sit inside ker(trace)
    if vstack([power, phi]).rank() != rank_s + 1:
        return False  # kernel of this power must escape ker(trace)
    return True


def verify_lemma_identities(p: int, beta_max: int, n_max: int) -> bool:
    """Check the explicit identities behind the rules, exhaustively in range.

    Covers, for every beta <= beta_max and every multiple n <= n_max of
    p^beta: the binomial congruence and the two distinguished-vector power
    identities on a regular block (matrix-free, so n can be large).  The
    rank-based smallest-block and kernel-containment facts run for regular
    blocks of size p^beta and for every partition of every n <= 8 divisible
    by p, capped at tensor-square operators of dimension 1100 so the large
    vector-identity cases never trigger a huge elimination.
    """
    check_modulus(p)
    if not _binomial_congruences_hold(p, beta_max):
        return False
    for beta in range(beta_max + 1):
        s = p**beta
        n = s
        while n <= n_max:
            if not _vector_identities_hold(p, beta, n):
                return False
            n += s
    for beta in range(beta_max + 1):
        n = p**beta
        if n >= 2 and n * n <= _RANK_FACT_DIM_CAP:
            if not _rank_facts_hold(p, JordanType({n: 1})):
                return False
    for n in range(2, min(n_max, _PARTITION_FACT_N_CAP) + 1):
        if n % p:
            continue
        for jt in enumerate_partitions(n):
            if not _rank_facts_hold(p, jt):
                return False
    return True
