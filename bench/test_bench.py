"""Tests of the benchmark's failure accounting and trace counts.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jordanblocks import gfp, operators, rules, sweep  # noqa: E402
from jordanblocks.operators import ModuleSpec  # noqa: E402
from jordanblocks.partitions import JordanType  # noqa: E402


def _tally(wl) -> run.Tally:
    tally = run.Tally()
    run._run_units(wl, 0, 1, tally)
    return tally


def _small_sweep(**kwargs) -> sweep.SweepConfig:
    return sweep.SweepConfig(max_n=4, primes=(2, 3), threads=1, **kwargs)


def test_small_sweep_passes():
    tally = _tally(workloads.sweep_workload([_small_sweep()], lemma_primes=(2,)))
    assert tally.attempted > 0 and tally.failed == 0


def test_mutated_sweep_has_positive_failed_frac():
    wl = workloads.sweep_workload([_small_sweep(mutate=True)], lemma_primes=())
    tally = _tally(wl)
    assert tally.failed / tally.attempted > 0


def test_sweep_that_checks_nothing_is_a_failed_run():
    cfg = sweep.SweepConfig(
        max_n=5, primes=(5,), modules=(ModuleSpec.parse("adjoint-int"),), threads=1
    )
    checked, skipped, _ = workloads.count_sweep_checks(cfg)
    assert checked == 0 and skipped > 0
    tally = _tally(workloads.sweep_workload([cfg], lemma_primes=()))
    assert tally.attempted >= 1 and tally.failed == tally.attempted


def test_wrong_table_digest_fails_every_line():
    wl = workloads.rules_table_workload(n_max=4, digest="0" * 64)
    tally = _tally(wl)
    assert tally.attempted > 1 and tally.failed == tally.attempted


def test_raising_part_counts_its_planned_cases():
    def boom():
        raise ValueError("broken part")

    part = workloads.Part("boom", boom, lambda out: (1, 0), planned=7)
    tally = _tally(workloads.Workload((part,)))
    assert (tally.attempted, tally.failed) == (7, 7)


def _small_table():
    status, text = workloads.run_cli(
        ["table", "--n-max", "5", "--primes", "2,3,5", "--modules", workloads.TABLE_MODULES,
         "--format", "tsv"]
    )
    assert status == 0
    digest = hashlib.sha256(text.encode()).hexdigest()
    return workloads.rules_table_workload(n_max=5, digest=digest)


SMALL = {
    "sweep": lambda: workloads.sweep_workload(
        [
            _small_sweep(
                modules=workloads.parse_modules("sl,psl,adjoint-int"), unipotent_agreement=True
            )
        ],
        lemma_primes=(2,),
    ),
    "oracle_large": lambda: workloads.oracle_workload(
        0,
        slots=(
            ("SL", "psl", 2, False, ("2^2",)),
            ("SL", "psl", 3, True, ("1,2",)),
            ("Sp", "l_omega2", 3, False, ("2^2",)),
            ("SO", "l_2omega1", 3, False, ("5",)),
        ),
    ),
    "rules_table": _small_table,
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_repeat_counts_exactly(name):
    wl = SMALL[name]()
    runs = []
    for _ in range(2):
        tally = run.Tally()
        traces = []

        def trace_unit(fn):
            out, metrics = tracing.traced_call(fn)
            traces.append(metrics)
            return out

        run._run_units(wl, 0, 1, tally, wrap=trace_unit)
        assert tally.attempted > 0 and tally.failed == 0
        runs.append(traces[0])
    first, second = runs
    assert {k: first[k] for k in tracing.EXACT} == {k: second[k] for k in tracing.EXACT}
    assert first["gfp.elim.calls"] > 0 and first["gfp.elim.cells"] > 0
    assert first["gfp.jordan_type.rank_steps"] > 0


def test_traced_sweep_counts_match_the_planned_cases():
    cfg = _small_sweep(modules=workloads.parse_modules("sl,psl,adjoint-int"))
    checked, skipped, _ = workloads.count_sweep_checks(cfg)
    _, metrics = tracing.traced_call(lambda: sweep.run_sweep(cfg))
    assert (metrics["sweep.cases.checked"], metrics["sweep.cases.skipped"]) == (checked, skipped)


def test_traced_table_counts_cache_lookups_like_cache_info():
    workloads.clear_pair_caches()
    _, metrics = tracing.traced_call(lambda: workloads.run_cli(["table", "--n-max", "6"]))
    infos = [cache.cache_info() for cache in workloads.PAIR_CACHES]
    assert metrics["rules.pair_cache.hits"] == sum(i.hits for i in infos)
    assert metrics["rules.pair_cache.misses"] == sum(i.misses for i in infos)
    assert metrics["rules.pair_fill.calls"] == metrics["rules.pair_cache.misses"]
    assert 0 < metrics["rules.pair_cache.hit_ratio"] < 1


def test_rank_steps_count_only_the_rank_chain():
    m = operators.natural_nilpotent(JordanType.parse("2,3"), 5).matrix
    _, metrics = tracing.traced_call(lambda: gfp.jordan_type_of_nilpotent(m))
    assert metrics["gfp.jordan_type.calls"] == 1
    assert metrics["gfp.jordan_type.rank_steps"] == 3  # the largest block
    _, metrics = tracing.traced_call(lambda: gfp.column_space_basis(m))
    assert metrics["gfp.elim.calls"] == 1 and metrics["gfp.jordan_type.rank_steps"] == 0


def test_tracing_restores_every_original():
    rank, pair = gfp.GFpMatrix.rank, rules.tensor_pair_type
    tracing.traced_call(lambda: None)
    assert gfp.GFpMatrix.rank is rank and rules.tensor_pair_type is pair
    assert rules.jordan_type_of_nilpotent is gfp.jordan_type_of_nilpotent


def test_run_without_program_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
