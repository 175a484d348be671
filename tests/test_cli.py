import json
import subprocess
import sys
from pathlib import Path

import pytest

from jordanblocks import JordanType
from jordanblocks.cli import main

GOLDEN = Path(__file__).parent / "data" / "reference_table.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_type_rules_engine(capsys):
    code, out, _ = run_cli(
        capsys, "type", "--partition", "2,3", "--p", "5", "--family", "SL", "--module", "psl"
    )
    assert code == 0
    assert out.strip() == "2^2,3^2,4^2,5"


def test_type_other_reference_query(capsys):
    code, out, _ = run_cli(capsys, "type", "--partition", "1^5", "--p", "5", "--module", "psl")
    assert code == 0
    assert out.strip() == "1^23"


def test_type_both_engines_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        "type",
        "--partition", "2^2",
        "--p", "2",
        "--module", "psl",
        "--engine", "both",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "AGREE"
    assert lines[0].split()[-1] == lines[1].split()[-1] == "1^2,2^6"


def test_type_oracle_unipotent(capsys):
    code, out, _ = run_cli(
        capsys,
        "type",
        "--partition", "4",
        "--p", "2",
        "--module", "wedge2",
        "--engine", "oracle",
        "--unipotent",
    )
    assert code == 0
    assert out.strip() == "2,4"


def test_type_bad_characteristic_for_sp(capsys):
    code, _, err = run_cli(
        capsys, "type", "--partition", "3", "--p", "2", "--family", "Sp", "--module", "l_omega2"
    )
    assert code == 2
    assert "good characteristic" in err


@pytest.mark.parametrize("module", ["gl", "sl", "psl"])
@pytest.mark.parametrize("engine", ["rules", "oracle"])
def test_type_modulus_above_bound_exits_2(capsys, module, engine):
    code, _, err = run_cli(
        capsys, "type", "--partition", "2,3", "--p", "4294967311", "--module", module,
        "--engine", engine,
    )
    assert code == 2
    assert "exceeds 3037000499" in err


@pytest.mark.parametrize("module", ["gl", "sl", "psl"])
def test_type_largest_admitted_prime_agrees(capsys, module):
    code, out, _ = run_cli(
        capsys, "type", "--partition", "2,3", "--p", "3037000493", "--module", module,
        "--engine", "both",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "AGREE"


def test_type_parse_error(capsys):
    code, _, err = run_cli(capsys, "type", "--partition", "x", "--p", "3", "--module", "sl")
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["type", "--partition", "2"])  # missing required flags
    assert exc.value.code == 2


def test_reference_table_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "table", "--paper-table")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_reference_table_empty_when_p_never_divides(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--paper-table", "--n-min", "2", "--n-max", "2", "--primes", "3"
    )
    assert code == 0
    assert out.strip() == ""


def test_table_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "table", "--paper-table", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 17
    for row in rows:
        parsed = JordanType.parse(row["partition"])
        assert parsed.total_dim == row["n"]
        for text in row["types"].values():
            JordanType.parse(text)


def test_table_tsv_layout(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-min", "2", "--n-max", "3", "--primes", "2", "--format", "tsv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family\tn\tp\tpartition\tgl\tpsl"
    assert all(len(line.split("\t")) == 6 for line in lines[1:])


def test_table_custom_modules(capsys):
    code, out, _ = run_cli(
        capsys, "table",
        "--n-min", "4", "--n-max", "4", "--primes", "3",
        "--family", "Sp", "--modules", "wedge2,l_omega2", "--format", "tsv",
    )
    assert code == 0
    assert out.splitlines()[0].endswith("wedge2\tl_omega2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("table", "--primes", "4"), "modulus 4 is not prime"),
        (("table", "--primes", "2,4", "--n-max", "3"), "modulus 4 is not prime"),
        (("table", "--primes", "4294967311"), "exceeds 3037000499"),
        (("sweep", "--primes", "3,4294967311", "--max-n", "3"), "exceeds 3037000499"),
        (("table", "--primes", ""), "--primes needs at least one value"),
        (("table", "--modules", ""), "--modules needs at least one value"),
        (("sweep", "--primes", ""), "--primes needs at least one value"),
        (("sweep", "--modules", ""), "--modules needs at least one value"),
        (("sweep", "--families", ""), "--families needs at least one value"),
    ],
)
def test_bad_prime_or_empty_list_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_table_sp_default_primes_skip_p_2(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "Sp")
    assert code == 0
    groups = [line for line in out.splitlines() if line.startswith("n=")]
    assert groups == ["n=4 p=3", "n=4 p=5"]


def test_sweep_clean_run(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--max-n", "4", "--primes", "2,3", "--modules", "sl,psl"
    )
    assert code == 0
    assert out.strip() == ""
    assert "0 discrepancy(ies)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--modules", "adjoint-int", "--max-n", "5", "--primes", "5"),
        ("--families", "SL", "--modules", "l_omega2"),
    ],
)
def test_sweep_that_compares_nothing_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, "sweep", *argv)
    assert code == 2
    assert "compared no" in err


def test_sweep_bad_thread_count_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "sweep", "--max-n", "3", "--primes", "2", "--threads", "0")
    assert code == 2
    assert "threads must be >= 1" in err
    monkeypatch.setenv("JORDANBLOCKS_THREADS", "abc")
    code, _, err = run_cli(capsys, "sweep", "--max-n", "3", "--primes", "2")
    assert code == 2
    assert "JORDANBLOCKS_THREADS" in err


def test_sweep_mutation_reports_and_exit(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-n", "3", "--primes", "2", "--mutate")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines
    parsed = json.loads(lines[0])
    assert parsed["family"] == "SL"


def test_sweep_check_lemmas(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--max-n", "3",
        "--primes", "2,3",
        "--check-lemmas",
        "--beta-max", "1",
        "--lemma-n-max", "6",
    )
    assert code == 0
    assert "lemma identities OK" in err


def test_module_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "jordanblocks", "type", "--partition", "3", "--p", "3", "--module", "psl"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "2^2,3"
