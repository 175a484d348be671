import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import (
    Family,
    GroupContext,
    JordanType,
    ModuleSpec,
    closed_form_type,
    irreducible_type_from_base,
    lift_to_sym2,
    lift_to_tensor,
    lift_to_wedge2,
    natural_nilpotent,
    oracle_type,
    psl_type_from_gl,
    sl_type_from_gl,
    sym_square_type,
    tensor_pair_type,
    tensor_square_type,
    unipotent_matches_nilpotent_on_psl,
    wedge_square_type,
)
from jordanblocks.sweep import enumerate_partitions

partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(JordanType.from_sizes)


def T(text):
    return JordanType.parse(text)


# -- pairwise cache -------------------------------------------------------------------


def test_pair_types_small_char():
    assert tensor_pair_type(2, 2, 2) == T("2^2")
    assert tensor_pair_type(3, 3, 2) == T("1,4^2")
    assert tensor_pair_type(2, 2, 3) == T("1,3")
    assert tensor_pair_type(1, 1, 5) == T("1")
    assert tensor_pair_type(1, 4, 3) == T("4")


def test_pair_type_symmetric_and_dimension():
    for a in range(1, 6):
        for b in range(1, 6):
            for p in (2, 3):
                t = tensor_pair_type(a, b, p)
                assert t == tensor_pair_type(b, a, p)
                assert t.total_dim == a * b


def test_pair_type_large_p_is_clebsch_gordan():
    # when p is at least a+b-1 the characteristic-zero ladder appears:
    # sizes a+b-1, a+b-3, ..., a-b+1 once each (a >= b)
    for a in range(1, 7):
        for b in range(1, a + 1):
            for p in (11, 13):
                want = JordanType.from_sizes(a + b - 1 - 2 * k for k in range(b))
                assert tensor_pair_type(a, b, p) == want


@given(partitions, st.sampled_from([2, 3, 5]))
@settings(max_examples=25)
def test_square_types_match_explicit_matrices(jt, p):
    e = natural_nilpotent(jt, p).matrix
    assert tensor_square_type(jt, p) == lift_to_tensor(e).jordan_type()
    if jt.total_dim >= 2:
        assert wedge_square_type(jt, p) == lift_to_wedge2(e).jordan_type()
    assert sym_square_type(jt, p) == lift_to_sym2(e).jordan_type()


@given(partitions, st.sampled_from([3, 5, 7]))
def test_square_types_odd_p_split(jt, p):
    assert tensor_square_type(jt, p) == wedge_square_type(jt, p) + sym_square_type(jt, p)


# -- trace-zero rules -----------------------------------------------------------------


def test_sl_rule_reference_values():
    # frozen from the exact-rank oracle on the corresponding kernels
    assert sl_type_from_gl(T("3^3"), 3, 1) == T("2,3^2")
    assert sl_type_from_gl(T("1^9"), 3, 0) == T("1^8")
    assert sl_type_from_gl(T("2^8"), 2, 1) == T("1,2^7")


def test_sl_rule_input_validation():
    with pytest.raises(ValueError, match="inconsistent input"):
        sl_type_from_gl(T("2^3"), 2, 0)  # no size-1 block to remove
    with pytest.raises(ValueError, match="inconsistent input"):
        sl_type_from_gl(T("1^4"), 2, 1)  # no size-2 block to remove
    with pytest.raises(ValueError):
        sl_type_from_gl(T("1^4"), 2, -1)


def test_psl_rule_reference_values():
    assert psl_type_from_gl(T("5^5"), 5, 5, 1) == T("4^2,5^3")
    assert psl_type_from_gl(T("1^2,2^2,3"), 3, 3, 0) == T("2^2,3")
    assert psl_type_from_gl(T("1^16"), 2, 4, 0) == T("1^14")
    # p not dividing n: only one trivial summand comes off
    assert psl_type_from_gl(T("1^2,4^2,5^3"), 5, 6, 0) == T("1,4^2,5^3")


def test_psl_rule_input_validation():
    with pytest.raises(ValueError, match="inconsistent input"):
        psl_type_from_gl(T("2,1^2"), 2, 4, 1)  # needs two blocks of size 2
    with pytest.raises(ValueError, match="positive valuation"):
        psl_type_from_gl(T("2^2"), 2, 3, 1)  # valuation > 0 forces p | n


def test_rules_never_emit_size_zero_blocks():
    # the valuation-0 cases replace a removed block by nothing at all
    out = sl_type_from_gl(T("1^4"), 2, 0)
    assert min(out.sizes) >= 1 and out.total_dim == 3
    out = psl_type_from_gl(T("1^4"), 2, 2, 0)
    assert min(out.sizes) >= 1 and out.total_dim == 2


@given(partitions, st.sampled_from([2, 3, 5]))
@settings(max_examples=30)
def test_rule_dimension_bookkeeping(jt, p):
    gl = tensor_square_type(jt, p)
    val = jt.gcd_valuation(p)
    n = jt.total_dim
    assert sl_type_from_gl(gl, p, val).total_dim == gl.total_dim - 1
    psl = psl_type_from_gl(gl, p, n, val)
    assert psl.total_dim == gl.total_dim - (2 if n % p == 0 else 1)
    if n % p:
        assert psl == sl_type_from_gl(gl, p, val)


def test_irreducible_rule_needs_odd_p():
    with pytest.raises(ValueError, match="bad characteristic"):
        irreducible_type_from_base(T("1^6"), 2, 4, 0)


def test_irreducible_rule_reference_values():
    assert irreducible_type_from_base(T("1^6"), 3, 4, 0) == T("1^5")
    assert irreducible_type_from_base(T("1^15"), 3, 6, 0) == T("1^13")


def test_irreducible_rule_matches_oracle_sp6():
    jt = T("3^2")
    ctx = GroupContext(Family.SP, 6, 3)
    base = wedge_square_type(jt, 3)
    by_rule = irreducible_type_from_base(base, 3, 6, jt.gcd_valuation(3))
    assert by_rule == oracle_type(jt, ctx, ModuleSpec.SP_OMEGA2)


# -- full pipeline --------------------------------------------------------------------


def test_pipeline_reference_rows():
    ctx5 = GroupContext(Family.SL, 5, 5)
    assert closed_form_type(T("1,4"), ctx5, ModuleSpec.PSL) == T("4^2,5^3")
    assert closed_form_type(T("1^3,2"), ctx5, ModuleSpec.PSL) == T("1^8,2^6,3")
    ctx2 = GroupContext(Family.SL, 2, 2)
    assert closed_form_type(T("2"), ctx2, ModuleSpec.PSL) == T("1^2")


def test_pipeline_modules_against_oracle_spot():
    cases = [
        (T("1,2"), GroupContext(Family.SL, 3, 3), ModuleSpec.SL),
        (T("2,4"), GroupContext(Family.SL, 6, 2), ModuleSpec.PSL),
        (T("1^2,2^2"), GroupContext(Family.SP, 6, 3), ModuleSpec.SP_OMEGA2),
        (T("1,2^2"), GroupContext(Family.SO, 5, 5), ModuleSpec.SO_2OMEGA1),
        (T("4"), GroupContext(Family.SL, 4, 2), ModuleSpec.ADJOINT_INT),
        (T("2,3"), GroupContext(Family.SL, 5, 7), ModuleSpec.WEDGE2),
    ]
    for jt, ctx, module in cases:
        assert closed_form_type(jt, ctx, module) == oracle_type(jt, ctx, module), (jt, ctx, module)


def test_pipeline_validates_inputs():
    with pytest.raises(ValueError, match="not admissible"):
        closed_form_type(T("3,1"), GroupContext(Family.SP, 4, 3), ModuleSpec.SP_OMEGA2)
    with pytest.raises(ValueError, match="family SO"):
        closed_form_type(T("2,3"), GroupContext(Family.SL, 5, 3), ModuleSpec.SO_2OMEGA1)


# -- unipotent agreement predicate ------------------------------------------------------


def test_agreement_predicate_examples():
    assert not unipotent_matches_nilpotent_on_psl(T("5"), 5, 5)
    assert unipotent_matches_nilpotent_on_psl(T("1^4"), 2, 4)
    assert unipotent_matches_nilpotent_on_psl(T("2^2"), 2, 4)
    assert not unipotent_matches_nilpotent_on_psl(T("2"), 2, 2)
    with pytest.raises(ValueError, match="does not match"):
        unipotent_matches_nilpotent_on_psl(T("2"), 2, 4)


@pytest.mark.parametrize("p", [2, 3])
def test_agreement_predicate_against_oracle(p):
    for n in range(2, 7):
        if n % p:
            continue
        for jt in enumerate_partitions(n):
            ctx = GroupContext(Family.SL, n, p)
            u_type = oracle_type(jt, ctx, ModuleSpec.PSL, unipotent=True)
            e_type = oracle_type(jt, ctx, ModuleSpec.PSL)
            assert (u_type == e_type) == unipotent_matches_nilpotent_on_psl(jt, p, n), jt
