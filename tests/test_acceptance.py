"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS/FAIL line so a `pytest -s` run reads as a
checklist.  All comparisons are exact (integer partitions); the only
tolerances are the stated wall-clock bounds.
"""

import time

from jordanblocks import (
    Family,
    GroupContext,
    JordanType,
    ModuleSpec,
    SweepConfig,
    closed_form_type,
    enumerate_partitions,
    is_admissible,
    lift_to_sym2,
    lift_to_tensor,
    lift_to_wedge2,
    natural_nilpotent,
    natural_unipotent,
    oracle_type,
    run_sweep,
    sym_square_type,
    tensor_square_type,
    unipotent_matches_nilpotent_on_psl,
    verify_lemma_identities,
    wedge_square_type,
)
from jordanblocks.operators import _OracleSession

PSL = ModuleSpec.PSL
SL = ModuleSpec.SL
GL = ModuleSpec.GL


def T(text):
    return JordanType.parse(text)


class _report:
    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.note = ""
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        elapsed = time.perf_counter() - self.start
        note = f" [{self.note}]" if self.note else ""
        print(f"ACCEPTANCE {self.number}: {verdict} ({elapsed:.2f}s) {self.description}{note}")
        return False


# reference rows: (n, p, partition, type on the full matrix space, type on
# the trace-zero-mod-scalars module), for every n in 2..5 with p dividing n.
# Note there are 17 such rows (2 + 3 + 5 + 7).
REFERENCE_ROWS = [
    (2, 2, "2", "2^2", "1^2"),
    (2, 2, "1^2", "1^4", "1^2"),
    (3, 3, "3", "3^3", "2^2,3"),
    (3, 3, "1,2", "1^2,2^2,3", "2^2,3"),
    (3, 3, "1^3", "1^9", "1^7"),
    (4, 2, "4", "4^4", "3^2,4^2"),
    (4, 2, "1,3", "1^2,3^2,4^2", "3^2,4^2"),
    (4, 2, "2^2", "2^8", "1^2,2^6"),
    (4, 2, "1^2,2", "1^4,2^6", "1^2,2^6"),
    (4, 2, "1^4", "1^16", "1^14"),
    (5, 5, "5", "5^5", "4^2,5^3"),
    (5, 5, "1,4", "1^2,4^2,5^3", "4^2,5^3"),
    (5, 5, "2,3", "1^2,2^2,3^2,4^2,5", "2^2,3^2,4^2,5"),
    (5, 5, "1^2,3", "1^5,3^5,5", "1^3,3^5,5"),
    (5, 5, "1,2^2", "1^5,2^4,3^4", "1^3,2^4,3^4"),
    (5, 5, "1^3,2", "1^10,2^6,3", "1^8,2^6,3"),
    (5, 5, "1^5", "1^25", "1^23"),
]


def test_criterion_1_reference_table():
    with _report(1, "reference table rows reproduced by both engines, < 1 s") as rep:
        start = time.perf_counter()
        # completeness: the rows above are exactly the (n, p | n) partitions
        seen = {(n, p, part) for n, p, part, _, _ in REFERENCE_ROWS}
        expected_index = {
            (n, p, str(jt))
            for n in range(2, 6)
            for p in (2, 3, 5)
            if n % p == 0
            for jt in enumerate_partitions(n)
        }
        assert seen == expected_index and len(REFERENCE_ROWS) == 17
        for n, p, part, gl_want, psl_want in REFERENCE_ROWS:
            jt = T(part)
            ctx = GroupContext(Family.SL, n, p)
            for module, want in ((GL, gl_want), (PSL, psl_want)):
                assert str(closed_form_type(jt, ctx, module)) == want, (part, module)
                assert str(oracle_type(jt, ctx, module)) == want, (part, module)
        elapsed = time.perf_counter() - start
        rep.note = f"17 rows (2+3+5+7), {elapsed:.3f}s"
        assert elapsed < 1.0


def test_criterion_2_rules_match_oracle_sl_psl():
    with _report(2, "rules equal the oracle on sl and psl, n <= 10, p in {2,3,5,7}, < 60 s") as rep:
        start = time.perf_counter()
        reports = run_sweep(SweepConfig(max_n=10, primes=(2, 3, 5, 7)))
        elapsed = time.perf_counter() - start
        rep.note = f"{elapsed:.1f}s"
        assert reports == []
        assert elapsed < 60.0


def test_criterion_3_sp_so_irreducible_sweeps():
    with _report(3, "irreducible-factor rules equal the oracle for Sp and SO, < 60 s") as rep:
        start = time.perf_counter()
        sp = SweepConfig(
            max_n=8,
            primes=(3, 5, 7),
            families=(Family.SP,),
            modules=(ModuleSpec.SP_OMEGA2,),
        )
        so = SweepConfig(
            max_n=8,
            primes=(3, 5, 7),
            families=(Family.SO,),
            modules=(ModuleSpec.SO_2OMEGA1,),
        )
        assert run_sweep(sp) == []
        assert run_sweep(so) == []
        elapsed = time.perf_counter() - start
        rep.note = f"{elapsed:.1f}s"
        assert elapsed < 60.0


def test_criterion_4_unipotent_nilpotent_comparisons():
    with _report(4, "u and e agree on the tensor square (p in {2,3,5}) and on both squares (p in {3,5}), n <= 8") as rep:
        checked = 0
        for n in range(2, 9):
            for jt in enumerate_partitions(n):
                for p in (2, 3, 5):
                    ctx = GroupContext(Family.SL, n, p)
                    e = _OracleSession(jt, ctx, unipotent=False)
                    u = _OracleSession(jt, ctx, unipotent=True)
                    assert e.tensor_type() == u.tensor_type(), (jt, p)
                    checked += 1
                    if p > 2:
                        assert e.wedge_type() == u.wedge_type(), (jt, p)
                        assert e.sym_type() == u.sym_type(), (jt, p)
                        checked += 2
        rep.note = f"{checked} comparisons"


def test_criterion_5_char2_counterexample_with_annotation():
    with _report(5, "characteristic-2 counterexample lists reproduced; dimension discrepancy annotated") as rep:
        # The reference counterexample lists are 2+4 / 3+3 on the exterior
        # square and 2+4+4 / 1+1+4+4 on the symmetric square.  They are
        # labelled dim V = 3, but those totals (6 and 10) are the square
        # dimensions of a FOUR dimensional space; for dim V = 3 the squares
        # have dimensions 3 and 6.  The oracle settles what actually
        # happens; nothing is silently corrected.
        reference = {
            "wedge_u": T("2,4"),
            "wedge_e": T("3^2"),
            "sym_u": T("2,4^2"),
            "sym_e": T("1^2,4^2"),
        }

        def squares(n):
            e = natural_nilpotent(T(str(n)), 2).matrix
            u = natural_unipotent(T(str(n)), 2)
            return {
                "wedge_u": lift_to_wedge2(u, unipotent=True).jordan_type(),
                "wedge_e": lift_to_wedge2(e).jordan_type(),
                "sym_u": lift_to_sym2(u, unipotent=True).jordan_type(),
                "sym_e": lift_to_sym2(e).jordan_type(),
            }

        # annotation 1: at the labelled dimension 3 the lists cannot apply;
        # the true types are recorded here.  The symmetric square already
        # separates u from e (a genuine p = 2 counterexample), while the
        # exterior-square types coincide.
        at3 = squares(3)
        assert all(q.total_dim > at3[key].total_dim for key, q in reference.items())
        assert at3 == {
            "wedge_u": T("3"),
            "wedge_e": T("3"),
            "sym_u": T("2,4"),
            "sym_e": T("1^2,4"),
        }
        assert at3["sym_u"] != at3["sym_e"]

        # annotation 2: at dimension 4 every reference list matches exactly,
        # which identifies the counterexample the lists describe.
        assert squares(4) == reference
        rep.note = (
            "lists hold verbatim at dim 4; at the labelled dim 3 the oracle gives "
            "wedge 3/3 and sym 2,4 vs 1^2,4 (documented, not failed)"
        )


def test_criterion_6_agreement_biconditional():
    with _report(6, "psl agreement of u and e holds exactly when p^(valuation+1) divides n") as rep:
        checked = 0
        for p in (2, 3):
            for n in range(2, 9):
                if n % p:
                    continue
                for jt in enumerate_partitions(n):
                    ctx = GroupContext(Family.SL, n, p)
                    u_type = _OracleSession(jt, ctx, unipotent=True).psl_type()
                    e_type = _OracleSession(jt, ctx, unipotent=False).psl_type()
                    assert (u_type == e_type) == unipotent_matches_nilpotent_on_psl(jt, p, n), (jt, p)
                    checked += 1
        rep.note = f"{checked} cases, zero exceptions"


def test_criterion_7_lemma_identities():
    with _report(7, "explicit vector, binomial, smallest-block and kernel identities") as rep:
        for p in (2, 3, 5):
            assert verify_lemma_identities(p, beta_max=3, n_max=min(125, p**3)), p
        rep.note = "p in {2,3,5}, beta <= 3, matrices up to 125"


def test_criterion_8_structural_invariants():
    with _report(8, "square decomposition, dimension bookkeeping, loud differences") as rep:
        # tensor square = exterior + symmetric for odd p, via the cached
        # pairwise route on the full sweep range and explicit matrices at
        # small n
        for n in range(2, 9):
            for jt in enumerate_partitions(n):
                for p in (3, 5, 7):
                    assert tensor_square_type(jt, p) == wedge_square_type(jt, p) + sym_square_type(jt, p)
        for n in range(2, 5):
            for jt in enumerate_partitions(n):
                for p in (3, 5):
                    e = natural_nilpotent(jt, p).matrix
                    assert (
                        lift_to_tensor(e).jordan_type()
                        == lift_to_wedge2(e).jordan_type() + lift_to_sym2(e).jordan_type()
                    )
        # dimension bookkeeping of the rewriting rules over the sweep range
        for n in range(2, 11):
            for jt in enumerate_partitions(n):
                for p in (2, 3, 5, 7):
                    ctx = GroupContext(Family.SL, n, p)
                    gl_dim = n * n
                    assert closed_form_type(jt, ctx, SL).total_dim == gl_dim - 1
                    drop = 2 if n % p == 0 else 1
                    assert closed_form_type(jt, ctx, PSL).total_dim == gl_dim - drop
        # the multiset differences inside the irreducible-factor oracles
        # never fail across the admissible Sp and SO ranges
        count = 0
        for family, module, dims in (
            (Family.SP, ModuleSpec.SP_OMEGA2, (4, 6, 8)),
            (Family.SO, ModuleSpec.SO_2OMEGA1, (5, 6, 7, 8)),
        ):
            for n in dims:
                for p in (3, 5, 7):
                    ctx = GroupContext(family, n, p)
                    for jt in enumerate_partitions(n):
                        if not is_admissible(jt, ctx):
                            continue
                        oracle_type(jt, ctx, module)  # raises on any violation
                        count += 1
        rep.note = f"{count} irreducible-factor oracle calls, no decomposition errors"
