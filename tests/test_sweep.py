import json
import math
import os
import time

import pytest

import jordanblocks.sweep as sweep_module
from jordanblocks import (
    DiscrepancyReport,
    Family,
    GFpMatrix,
    GroupContext,
    JordanType,
    ModuleKind,
    ModuleSpec,
    SweepConfig,
    enumerate_partitions,
    is_admissible,
    run_sweep,
    verify_lemma_identities,
)


def T(text):
    return JordanType.parse(text)


def test_enumeration_order_and_counts():
    assert list(enumerate_partitions(2)) == [T("2"), T("1^2")]
    assert len(list(enumerate_partitions(4))) == 5
    assert len(list(enumerate_partitions(5))) == 7
    # reverse lexicographic on the descending form
    assert [jt.expanded() for jt in enumerate_partitions(5)] == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        list(enumerate_partitions(0))


def test_enumeration_yields_partitions_of_n():
    for n in range(1, 9):
        parts = list(enumerate_partitions(n))
        assert all(jt.total_dim == n for jt in parts)
        assert len(set(parts)) == len(parts)


def test_config_validation():
    with pytest.raises(ValueError, match="max_n"):
        SweepConfig(max_n=1, primes=(2,))
    with pytest.raises(ValueError, match="not prime"):
        SweepConfig(max_n=4, primes=(4,))
    with pytest.raises(ValueError, match="odd primes"):
        SweepConfig(max_n=4, primes=(2, 3), families=(Family.SP,))


def test_small_sl_sweep_is_clean():
    cfg = SweepConfig(max_n=5, primes=(2, 3, 5))
    assert run_sweep(cfg) == []


def test_small_sp_and_so_sweeps_are_clean():
    sp = SweepConfig(
        max_n=6,
        primes=(3, 5),
        families=(Family.SP,),
        modules=(ModuleSpec(ModuleKind.SP_OMEGA2),),
    )
    so = SweepConfig(
        max_n=6,
        primes=(3, 5),
        families=(Family.SO,),
        modules=(ModuleSpec(ModuleKind.SO_2OMEGA1),),
    )
    assert run_sweep(sp) == []
    assert run_sweep(so) == []


def test_unipotent_agreement_sweep_is_clean():
    cfg = SweepConfig(max_n=6, primes=(2, 3), unipotent_agreement=True)
    assert run_sweep(cfg) == []


def test_mutation_hook_triggers_reports():
    cfg = SweepConfig(max_n=4, primes=(2,), mutate=True)
    reports = run_sweep(cfg)
    assert reports, "corrupted rules must be detected"
    first = json.loads(reports[0].to_json())
    assert set(first) == {"partition", "family", "n", "p", "module", "expected", "actual"}
    # reports must be reproducible from their fields alone
    JordanType.parse(first["partition"])
    JordanType.parse(first["expected"])
    JordanType.parse(first["actual"])


def test_mutation_with_fail_fast_stops_at_one():
    cfg = SweepConfig(max_n=5, primes=(2, 3), mutate=True, fail_fast=True)
    assert len(run_sweep(cfg)) == 1


def test_threaded_sweep_matches_serial():
    serial = SweepConfig(max_n=5, primes=(2, 3), threads=1)
    threaded = SweepConfig(max_n=5, primes=(2, 3), threads=4)
    assert run_sweep(serial) == run_sweep(threaded)
    mutated = SweepConfig(max_n=4, primes=(2,), mutate=True, threads=4)
    assert run_sweep(mutated) == run_sweep(
        SweepConfig(max_n=4, primes=(2,), mutate=True, threads=1)
    )


def test_threads_env_variable(monkeypatch):
    monkeypatch.setenv("JORDANBLOCKS_THREADS", "3")
    assert SweepConfig(max_n=4, primes=(2,)).resolved_threads() == 3
    monkeypatch.delenv("JORDANBLOCKS_THREADS")
    assert SweepConfig(max_n=4, primes=(2,)).resolved_threads() == 1
    assert SweepConfig(max_n=4, primes=(2,), threads=2).resolved_threads() == 2
    for value in ("abc", "-3", "0", "2.5"):
        monkeypatch.setenv("JORDANBLOCKS_THREADS", value)
        with pytest.raises(ValueError, match="JORDANBLOCKS_THREADS"):
            SweepConfig(max_n=4, primes=(2,)).resolved_threads()


def test_worker_count_capped_by_cpus_and_cases(monkeypatch):
    seen = []
    real_pool = sweep_module.ThreadPoolExecutor

    def recording_pool(max_workers):
        seen.append(max_workers)
        return real_pool(max_workers=min(max_workers, 2))

    monkeypatch.setattr(sweep_module, "ThreadPoolExecutor", recording_pool)
    cfg = SweepConfig(max_n=3, primes=(2,), threads=10**6)
    cases = len(list(sweep_module.admissible_cases(cfg.families, range(2, cfg.max_n + 1), cfg.primes)))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert run_sweep(cfg) == []
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run_sweep(cfg) == []
    assert seen == [cases, 3] and cases == 5


@pytest.mark.parametrize("fail_fast", [False, True])
def test_failing_case_stops_threaded_sweep(monkeypatch, fail_fast):
    cfg = SweepConfig(max_n=7, primes=(2, 3), threads=2, fail_fast=fail_fast)
    first = next(sweep_module.admissible_cases(cfg.families, range(2, cfg.max_n + 1), cfg.primes))
    started = []

    def check_case(cfg, ctx, jt):
        started.append((ctx, jt))
        if (ctx, jt) != first:
            time.sleep(0.5)
            return [], 1
        if fail_fast:
            return [DiscrepancyReport(jt, ctx.family, ctx.n, ctx.p, "gl", "1", "2")], 1
        raise RuntimeError("first case fails")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep_module, "_check_case", check_case)
    if fail_fast:
        assert len(run_sweep(cfg)) == 1
    else:
        with pytest.raises(RuntimeError, match="first case fails"):
            run_sweep(cfg)
    # the first case, then at most one case per worker; 86 cases are queued
    assert len(started) <= 3


# the case enumeration as it was written out before `admissible_cases`, kept
# as the reference: it knows its own dimension bounds
_FAMILY_MIN_N = {Family.SL: 2, Family.SP: 4, Family.SO: 5}


def reference_cases(families, max_n, primes):
    cases = []
    for family in families:
        for n in range(_FAMILY_MIN_N[family], max_n + 1):
            if family is Family.SP and n % 2:
                continue
            for p in primes:
                try:
                    ctx = GroupContext(family, n, p)
                except ValueError:
                    continue
                for jt in enumerate_partitions(n):
                    if not is_admissible(jt, ctx):
                        continue
                    cases.append((family, n, p, jt))
    return cases


@pytest.mark.parametrize(
    "families, primes",
    [
        ((Family.SL,), (2, 3, 5, 7)),
        ((Family.SP,), (3, 5, 7)),
        ((Family.SO,), (3, 5, 7)),
        ((Family.SL, Family.SP, Family.SO), (3, 5, 7)),
    ],
)
def test_admissible_cases_match_reference(families, primes):
    cases = [
        (ctx.family, ctx.n, ctx.p, jt)
        for ctx, jt in sweep_module.admissible_cases(families, range(2, 10), primes)
    ]
    assert cases == reference_cases(families, 9, primes)
    assert len(cases) > 0


def test_report_sorting_deterministic():
    cfg = SweepConfig(max_n=4, primes=(2, 3), mutate=True)
    reports = run_sweep(cfg)
    assert reports == sorted(reports, key=DiscrepancyReport.sort_key)


def test_lemma_identities_reference_ranges():
    assert verify_lemma_identities(3, 2, 9)
    assert verify_lemma_identities(2, 3, 8)
    with pytest.raises(ValueError, match="not prime"):
        verify_lemma_identities(4, 1, 4)


def test_rank_facts_can_fail(monkeypatch):
    # no real operator breaks a rank fact, so break the trace functional: no
    # kernel escapes the kernel of the zero functional
    cases = [(3, T("3")), (2, T("2^2")), (2, T("1,2"))]  # s = 3, 2, 1
    for p, jt in cases:
        assert sweep_module._rank_facts_hold(p, jt)
    monkeypatch.setattr(
        sweep_module, "trace_functional", lambda n, p: GFpMatrix.zeros(p, 1, n * n)
    )
    for p, jt in cases:
        assert not sweep_module._rank_facts_hold(p, jt)


def test_binomial_congruence_frozen_example():
    # independent arithmetic check of one instance: C(8,3) = 56 = 2 mod 3
    assert math.comb(8, 3) % 3 == 2 == (-1) ** 3 % 3
