import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import (
    Family,
    GFpMatrix,
    GroupContext,
    JordanType,
    ModuleSpec,
    NilpotentOperator,
    admissible_witness,
    distinguished_vectors,
    is_admissible,
    jordan_type_of_nilpotent,
    lift_to_sym2,
    lift_to_tensor,
    lift_to_wedge2,
    natural_nilpotent,
    natural_unipotent,
    oracle_type,
    oracle_types,
    quotient_by_invariant_line,
    restrict_to_trace_kernel,
)
from jordanblocks.gfp import _row_echelon, inverse, nullspace, solve_columns, vstack
from jordanblocks.operators import (
    _MODULE_ALIASES,
    MODULES,
    gamma_vector,
    trace_functional,
    validate_query,
)
from jordanblocks.rules import closed_form_type
from jordanblocks.sweep import enumerate_partitions

partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(JordanType.from_sizes)


def T(text):
    return JordanType.parse(text)


# -- natural module builders ------------------------------------------------------


def test_natural_nilpotent_structure():
    op = natural_nilpotent(T("1^2,2"), 2)
    # blocks ascending: two size-1 blocks, then one size-2 block
    expect = np.zeros((4, 4), dtype=np.int64)
    expect[2, 3] = 1
    assert op.matrix.a.tolist() == expect.tolist()
    op2 = natural_nilpotent(T("2"), 3)
    assert op2.matrix.a.tolist() == [[0, 1], [0, 0]]


@given(partitions, st.sampled_from([2, 3, 5]))
def test_natural_nilpotent_roundtrip(jt, p):
    assert natural_nilpotent(jt, p).jordan_type() == jt


@given(partitions, st.sampled_from([2, 3, 5]))
def test_natural_unipotent_is_shifted_identity(jt, p):
    u = natural_unipotent(jt, p)
    n = jt.total_dim
    assert jordan_type_of_nilpotent(u - GFpMatrix.identity(p, n)) == jt
    # unitriangular, hence invertible
    assert u.rank() == n


def test_empty_type_rejected():
    with pytest.raises(ValueError):
        natural_nilpotent(JordanType(), 3)


# -- tensor lift --------------------------------------------------------------------


def test_tensor_lift_regular_n3_p3():
    op = lift_to_tensor(natural_nilpotent(T("3"), 3).matrix)
    assert op.jordan_type() == T("3^3")


def test_tensor_lift_zero_map():
    for n, p in ((2, 2), (4, 3)):
        op = lift_to_tensor(GFpMatrix.zeros(p, n, n))
        assert op.jordan_type() == JordanType({1: n * n})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_power_coefficients(p):
    # the k-th power sends v_i (x) v_j* to the alternating binomial sum
    # over v_(i-t) (x) v_(j+k-t)*; checked entrywise by matrix powering
    n = 4
    op = lift_to_tensor(natural_nilpotent(T(str(n)), p).matrix)
    for k in range(6):
        mk = (op.matrix**k).a
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expect = np.zeros(n * n, dtype=np.int64)
                for t in range(k + 1):
                    a, b = i - t, j + k - t
                    if 1 <= a <= n and 1 <= b <= n:
                        coeff = math.comb(k, t) * (-1) ** (k + t)
                        expect[(a - 1) * n + (b - 1)] += coeff
                col = (i - 1) * n + (j - 1)
                assert np.array_equal(mk[:, col], expect % p), (p, k, i, j)


@given(partitions, st.sampled_from([2, 3, 5]))
@settings(max_examples=30)
def test_tensor_type_matches_unsigned_convention(jt, p):
    # same block sizes on V (x) V* and V (x) V: the dual sign does not matter
    e = natural_nilpotent(jt, p).matrix
    n = jt.total_dim
    eye = np.eye(n, dtype=np.int64)
    unsigned = GFpMatrix(p, np.kron(e.a, eye) + np.kron(eye, e.a))
    assert lift_to_tensor(e).jordan_type() == jordan_type_of_nilpotent(unsigned)


# -- exterior and symmetric squares --------------------------------------------------


def test_wedge_regular_action_formula():
    # on a single block the lift acts by w(i,j) -> w(i,j-1) + w(i-1,j)
    n = 4
    op = lift_to_wedge2(natural_nilpotent(T(str(n)), 5).matrix)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    for (i, j), col in index.items():
        expect = np.zeros(len(pairs), dtype=np.int64)
        for a, b in ((i, j - 1), (i - 1, j)):
            if 1 <= a < b <= n:
                expect[index[(a, b)]] += 1
        assert np.array_equal(op.matrix.a[:, col], expect)


def test_wedge_and_sym_char2_small_dimensions():
    # In characteristic 2 the regular unipotent and nilpotent elements can
    # differ on these squares.  For dim V = 3 the exterior-square types
    # coincide (both a single size-3 block; the space is 3-dimensional, so
    # six-dimensional block lists cannot apply here, see the companion
    # n = 4 test below) while the symmetric square already separates them.
    e3 = natural_nilpotent(T("3"), 2).matrix
    u3 = natural_unipotent(T("3"), 2)
    assert lift_to_wedge2(e3).jordan_type() == T("3")
    assert lift_to_wedge2(u3, unipotent=True).jordan_type() == T("3")
    assert lift_to_sym2(e3).jordan_type() == T("1^2,4")
    assert lift_to_sym2(u3, unipotent=True).jordan_type() == T("2,4")


def test_wedge_and_sym_char2_counterexample_dimension():
    # dim V = 4 is where the reference counterexample lists hold exactly:
    # exterior square 2+4 vs 3+3, symmetric square 2+4+4 vs 1+1+4+4
    e4 = natural_nilpotent(T("4"), 2).matrix
    u4 = natural_unipotent(T("4"), 2)
    assert lift_to_wedge2(u4, unipotent=True).jordan_type() == T("2,4")
    assert lift_to_wedge2(e4).jordan_type() == T("3^2")
    assert lift_to_sym2(u4, unipotent=True).jordan_type() == T("2,4^2")
    assert lift_to_sym2(e4).jordan_type() == T("1^2,4^2")


def test_wedge_regular_n3_large_p():
    # dimension 3; for p >= 5 the characteristic-zero single block survives
    for p in (5, 7):
        op = lift_to_wedge2(natural_nilpotent(T("3"), p).matrix)
        assert op.jordan_type() == T("3")


def test_sym_zero_map_n2():
    op = lift_to_sym2(GFpMatrix.zeros(5, 2, 2))
    assert op.jordan_type() == T("1^3")


def test_wedge_needs_dim_two():
    with pytest.raises(ValueError, match="dim V >= 2"):
        lift_to_wedge2(GFpMatrix.zeros(3, 1, 1))


@given(partitions, st.sampled_from([3, 5]))
@settings(max_examples=25)
def test_odd_p_tensor_splits_into_wedge_and_sym(jt, p):
    e = natural_nilpotent(jt, p).matrix
    full = lift_to_tensor(e).jordan_type()
    split = lift_to_wedge2(e).jordan_type() + lift_to_sym2(e).jordan_type() if jt.total_dim >= 2 else None
    if split is not None:
        assert full == split


# -- lifts against per-pair reference constructions --------------------------------


def reference_wedge2(m_on_v, unipotent):
    """The exterior-square action built pair by pair: the image of
    ``v_a ^ v_b`` as an n x n coefficient array, antisymmetrised."""
    n = m_on_v.rows
    rows_idx, cols_idx = np.triu_indices(n, 1)
    dim = len(rows_idx)
    mat = np.zeros((dim, dim), dtype=np.int64)
    m = m_on_v.a
    for col, (a, b) in enumerate(zip(rows_idx, cols_idx)):
        if unipotent:
            d = np.outer(m[:, a], m[:, b])
        else:
            d = np.zeros((n, n), dtype=np.int64)
            d[:, b] += m[:, a]
            d[a, :] += m[:, b]
        anti = d - d.T
        mat[:, col] = anti[rows_idx, cols_idx]
    if unipotent:
        mat -= np.eye(dim, dtype=np.int64)
    return GFpMatrix(m_on_v.p, mat)


def reference_sym2(m_on_v, unipotent):
    """The symmetric-square action built pair by pair: the image of
    ``v_a v_b`` as an n x n coefficient array, symmetrised off the diagonal."""
    n = m_on_v.rows
    rows_idx, cols_idx = np.triu_indices(n, 0)
    dim = len(rows_idx)
    mat = np.zeros((dim, dim), dtype=np.int64)
    m = m_on_v.a
    diag = np.arange(n)
    for col, (a, b) in enumerate(zip(rows_idx, cols_idx)):
        if unipotent:
            d = np.outer(m[:, a], m[:, b])
        else:
            d = np.zeros((n, n), dtype=np.int64)
            d[:, b] += m[:, a]
            d[a, :] += m[:, b]
        sym = d + d.T
        sym[diag, diag] = d[diag, diag]
        mat[:, col] = sym[rows_idx, cols_idx]
    if unipotent:
        mat -= np.eye(dim, dtype=np.int64)
    return GFpMatrix(m_on_v.p, mat)


def assert_lifts_match_reference(m, unipotent):
    p, n = m.p, m.rows
    eye = np.eye(n, dtype=np.int64)
    if not unipotent:
        want = np.kron(m.a, eye) - np.kron(eye, m.a.T)
        assert lift_to_tensor(m).matrix == GFpMatrix(p, want)
    elif m.rank() == n:  # conjugation needs an invertible u
        want = np.kron(m.a, inverse(m).a.T) - np.eye(n * n, dtype=np.int64)
        assert lift_to_tensor(m, unipotent=True).matrix == GFpMatrix(p, want)
    if n >= 2:
        assert lift_to_wedge2(m, unipotent=unipotent).matrix == reference_wedge2(m, unipotent)
    assert lift_to_sym2(m, unipotent=unipotent).matrix == reference_sym2(m, unipotent)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lifts_match_reference_on_partitions(p):
    for n in range(1, 8):
        for jt in enumerate_partitions(n):
            assert_lifts_match_reference(natural_nilpotent(jt, p).matrix, False)
            assert_lifts_match_reference(natural_unipotent(jt, p), True)


def test_lifts_match_reference_on_witnesses():
    for family, dims in ((Family.SP, (4, 6, 8)), (Family.SO, (5, 6, 7))):
        for p in (3, 5):
            for n in dims:
                ctx = GroupContext(family, n, p)
                for jt in enumerate_partitions(n):
                    if is_admissible(jt, ctx):
                        x, _ = admissible_witness(jt, ctx)
                        assert_lifts_match_reference(x, False)
                        assert_lifts_match_reference(x + GFpMatrix.identity(p, n), True)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lifts_match_reference_on_random_matrices(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = GFpMatrix(p, rng.integers(0, p, size=(n, n)))
        assert_lifts_match_reference(m, False)
        assert_lifts_match_reference(m, True)


def test_square_lifts_exact_at_largest_modulus():
    # products of residues near p - 1 come close to 2**63, so the symmetric
    # square's sum of two of them must not wrap
    p = 3037000493
    rows = [[p - 1, p - 2, 1], [p - 3, p - 1, p - 5], [2, p - 7, p - 1]]
    for lift, sign, pairs in (
        (lift_to_wedge2, -1, list(itertools.combinations(range(3), 2))),
        (lift_to_sym2, 1, list(itertools.combinations_with_replacement(range(3), 2))),
    ):
        want = [
            [
                (rows[i][a] * rows[j][b] + (sign * rows[j][a] * rows[i][b] if i != j else 0))
                % p
                - (r == c)
                for c, (a, b) in enumerate(pairs)
            ]
            for r, (i, j) in enumerate(pairs)
        ]
        assert lift(GFpMatrix(p, rows), unipotent=True).matrix == GFpMatrix(p, want)


# -- trace-zero restriction and the quotient ------------------------------------------


def test_restrict_regular_n3_p3():
    # frozen from the exact-rank oracle on the 8-dimensional kernel
    op = restrict_to_trace_kernel(lift_to_tensor(natural_nilpotent(T("3"), 3).matrix))
    assert op.jordan_type() == T("2,3^2")
    assert op.dim == 8


def test_restrict_zero_map():
    for n, p in ((3, 2), (4, 3)):  # p does not divide n
        op = restrict_to_trace_kernel(lift_to_tensor(GFpMatrix.zeros(p, n, n)))
        assert op.jordan_type() == JordanType({1: n * n - 1})


def test_restrict_n2_p2_zero_map():
    op = restrict_to_trace_kernel(lift_to_tensor(GFpMatrix.zeros(2, 2, 2)))
    assert op.jordan_type() == T("1^3")


def test_restrict_rejects_wrong_module():
    wedge = lift_to_wedge2(natural_nilpotent(T("3"), 3).matrix)
    with pytest.raises(ValueError, match="V \\(x\\) V\\*"):
        restrict_to_trace_kernel(wedge)


def test_quotient_reference_values():
    cases = [
        ("3", 3, "2^2,3"),
        ("2^2", 2, "1^2,2^6"),
        ("1^5", 5, "1^23"),
    ]
    for part, p, want in cases:
        sl_op = restrict_to_trace_kernel(lift_to_tensor(natural_nilpotent(T(part), p).matrix))
        assert quotient_by_invariant_line(sl_op).jordan_type() == T(want)


def test_quotient_requires_p_dividing_n():
    sl_op = restrict_to_trace_kernel(lift_to_tensor(natural_nilpotent(T("3"), 2).matrix))
    with pytest.raises(ValueError, match="does not divide"):
        quotient_by_invariant_line(sl_op)


def test_gamma_is_annihilated():
    for part, p in (("3", 3), ("1,3", 2), ("2,3", 5)):
        jt = T(part)
        n = jt.total_dim
        g = gamma_vector(n, p)
        e_op = lift_to_tensor(natural_nilpotent(jt, p).matrix)
        assert (e_op.matrix @ g).is_zero()
        u_op = lift_to_tensor(natural_unipotent(jt, p), unipotent=True)
        assert (u_op.matrix @ g).is_zero()
        assert trace_functional(n, p).a[0].sum() == n


def trace_kernel_basis(n, p):
    """The trace-zero basis as explicit columns: off-diagonal matrix units
    row-major, then the consecutive diagonal differences."""
    cols = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = np.zeros(n * n, dtype=np.int64)
                v[i * n + j] = 1
                cols.append(v)
    for i in range(n - 1):
        v = np.zeros(n * n, dtype=np.int64)
        v[i * n + i] = 1
        v[(i + 1) * n + (i + 1)] = -1
        cols.append(v)
    return GFpMatrix(p, np.column_stack(cols))


def test_restrict_rejects_non_invariant_operator():
    n, p = 3, 5
    m = np.zeros((n * n, n * n), dtype=np.int64)
    m[0, 1] = 1  # the off-diagonal unit v_0 (x) v_1* onto the diagonal v_0 (x) v_0*
    op = NilpotentOperator(GFpMatrix(p, m), ModuleSpec.GL)
    with pytest.raises(ValueError, match="not invariant"):
        restrict_to_trace_kernel(op)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_coordinates_match_solve_route(p):
    # restriction and quotient against solving in the explicit basis
    for n in range(2, 7):
        basis = trace_kernel_basis(n, p)
        if n % p == 0:  # gamma has trace n, so it lies in the kernel
            gamma = solve_columns(basis, gamma_vector(n, p)).a[:, 0]
            pivot = int(np.nonzero(gamma)[0][0])
            line = gamma * pow(int(gamma[pivot]), -1, p) % p
            keep = [i for i in range(n * n - 1) if i != pivot]
        for jt in enumerate_partitions(n):
            for unipotent in (False, True):
                v = natural_unipotent(jt, p) if unipotent else natural_nilpotent(jt, p).matrix
                op = lift_to_tensor(v, unipotent=unipotent)
                sl_op = restrict_to_trace_kernel(op)
                assert sl_op.matrix == solve_columns(basis, op.matrix @ basis)
                if n % p == 0:
                    r = sl_op.matrix.a
                    want = ((r - np.outer(line, r[pivot])) % p)[np.ix_(keep, keep)]
                    assert quotient_by_invariant_line(sl_op).matrix == GFpMatrix(p, want)


def test_trace_kernel_basis_shape_and_kernel():
    basis = trace_kernel_basis(3, 5)
    assert basis.shape == (9, 8)
    assert (trace_functional(3, 5) @ basis).is_zero()
    assert basis.rank() == 8


# -- smallest block and kernel containment facts ---------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_smallest_tensor_block_is_p_power_of_valuation(p):
    for n in range(2, 7):
        for jt in enumerate_partitions(n):
            full = lift_to_tensor(natural_nilpotent(jt, p).matrix).jordan_type()
            assert min(full.sizes) == p ** jt.gcd_valuation(p), (jt, p)


@pytest.mark.parametrize("part,p", [("2", 2), ("2^2", 2), ("3", 3), ("1^2,2", 2), ("3,6", 3)])
def test_kernel_containments(part, p):
    jt = T(part)
    n = jt.total_dim
    e0 = lift_to_tensor(natural_nilpotent(jt, p).matrix).matrix
    phi = trace_functional(n, p)
    s = p ** jt.gcd_valuation(p)
    prev = e0 ** (s - 1)
    # kernel of the previous power lies inside ker(trace)
    assert vstack([prev, phi]).rank() == prev.rank()
    cur = e0**s
    # kernel of this power escapes ker(trace)
    assert vstack([cur, phi]).rank() == cur.rank() + 1


# -- invariant-hyperplane restriction, generic property --------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_codim_one_invariant_restriction_rule(p):
    # For a nilpotent e and an invariant hyperplane ker(f), the restricted
    # type drops one block: size m+1 becomes size m, where m is largest with
    # ker(e^m) inside ker(f) (a size-1 block disappears when m = 0).
    for n in range(2, 6):
        for jt in enumerate_partitions(n):
            e = natural_nilpotent(jt, p).matrix
            left_kernel = nullspace(e.transpose())  # functionals with f(e v) = 0
            candidates = [left_kernel.a[:, k] for k in range(left_kernel.cols)]
            if left_kernel.cols > 1:
                candidates.append(left_kernel.a.sum(axis=1) % p)
            for row in candidates:
                f = GFpMatrix(p, row.reshape(1, n))
                basis = nullspace(f)
                restricted = solve_columns(basis, e @ basis)
                m = 0
                while True:
                    power = e ** (m + 1)
                    if vstack([power, f]).rank() != power.rank():
                        break
                    m += 1
                if m == 0:
                    want = jt - JordanType({1: 1})
                else:
                    want = jt - JordanType({m + 1: 1}) + JordanType({m: 1})
                assert jordan_type_of_nilpotent(restricted) == want, (jt, p, row)


# -- distinguished vectors ---------------------------------------------------------------


def test_distinguished_vectors_regular_n3_p3():
    vectors = distinguished_vectors(T("3"), 3, 1)
    e0 = lift_to_tensor(natural_nilpotent(T("3"), 3).matrix).matrix
    # the one-block diagonal sub-sum is v3 (x) v3*
    expect = np.zeros((9, 1), dtype=np.int64)
    expect[8, 0] = 1
    assert vectors.delta_prime.a.tolist() == expect.tolist()
    assert ((e0**3) @ vectors.delta_prime).is_zero()
    # two applications of the action turn delta into the invariant vector
    assert (e0**2) @ vectors.delta == vectors.gamma
    assert vectors.gamma == gamma_vector(3, 3)


def test_distinguished_vectors_beta_zero_degenerate():
    vectors = distinguished_vectors(T("2,3"), 5, 0)
    assert vectors.delta == vectors.gamma
    assert vectors.delta_prime.a[:, 0].sum() == 2  # first block has size 2


@pytest.mark.parametrize("p,beta,part", [(2, 1, "2,4"), (3, 1, "3,6"), (2, 2, "4,8")])
def test_distinguished_vectors_multiblock_identities(p, beta, part):
    jt = T(part)
    vectors = distinguished_vectors(jt, p, beta)
    e0 = lift_to_tensor(natural_nilpotent(jt, p).matrix).matrix
    s = p**beta
    assert ((e0**s) @ vectors.delta_prime).is_zero()
    assert (e0 ** (s - 1)) @ vectors.delta == vectors.gamma


def test_distinguished_vectors_divisibility_error():
    with pytest.raises(ValueError, match="divide every block size"):
        distinguished_vectors(T("2,3"), 2, 1)


# -- oracle dispatch ------------------------------------------------------------------


def test_oracle_reference_values():
    assert oracle_type(T("2,3"), GroupContext(Family.SL, 5, 5), ModuleSpec.PSL) == T(
        "2^2,3^2,4^2,5"
    )
    assert oracle_type(
        T("1^4"), GroupContext(Family.SP, 4, 3), ModuleSpec.SP_OMEGA2
    ) == T("1^5")
    assert oracle_type(T("2,3"), GroupContext(Family.SL, 5, 3), ModuleSpec.NATURAL) == T("2,3")


def test_oracle_psl_without_p_dividing_n_is_trace_zero_type():
    ctx = GroupContext(Family.SL, 5, 3)
    out = oracle_types(T("2,3"), ctx, [ModuleSpec.SL, ModuleSpec.PSL])
    assert out[ModuleSpec.SL] == out[ModuleSpec.PSL]


def test_oracle_adjoint_modules():
    ctx = GroupContext(Family.SL, 4, 2)
    sl_t = oracle_type(T("1^4"), ctx, ModuleSpec.SL)
    psl_t = oracle_type(T("1^4"), ctx, ModuleSpec.PSL)
    assert oracle_type(T("1^4"), ctx, ModuleSpec.ADJOINT_SC) == sl_t
    assert oracle_type(T("1^4"), ctx, ModuleSpec.ADJOINT_AD) == sl_t
    assert oracle_type(
        T("1^4"), ctx, ModuleSpec.ADJOINT_INT
    ) == psl_t + JordanType({1: 1})


def test_oracle_validation_errors():
    with pytest.raises(ValueError, match="not admissible"):
        oracle_type(T("3,1"), GroupContext(Family.SP, 4, 3), ModuleSpec.SP_OMEGA2)
    with pytest.raises(ValueError, match="family Sp"):
        oracle_type(T("2,3"), GroupContext(Family.SL, 5, 3), ModuleSpec.SP_OMEGA2)
    with pytest.raises(ValueError, match="p\\^2 dividing n"):
        oracle_type(
            T("1^6"),
            GroupContext(Family.SL, 6, 2),
            ModuleSpec.ADJOINT_INT,
        )
    with pytest.raises(ValueError, match="does not match"):
        oracle_type(T("2"), GroupContext(Family.SL, 3, 2), ModuleSpec.SL)


def test_module_spec_parse_and_str():
    assert ModuleSpec.parse("psl") is ModuleSpec.PSL
    assert ModuleSpec.parse("VxV*") is ModuleSpec.GL
    assert str(ModuleSpec.parse("tensor")) == "gl"
    assert ModuleSpec.parse("adjoint-int") is ModuleSpec.ADJOINT_INT
    assert str(ModuleSpec.parse("adjoint-sc")) == "adjoint-sc"
    with pytest.raises(ValueError, match="unknown module"):
        ModuleSpec.parse("spin")
    # one enum names every module, and the table has one row per member
    assert set(MODULES) == set(ModuleSpec)
    for module in ModuleSpec:
        assert ModuleSpec.parse(str(module)) is module
        assert f"{module}" == module.value
        assert module.entry is MODULES[module]
    for alias, name in _MODULE_ALIASES.items():
        assert ModuleSpec.parse(alias) is ModuleSpec(name)


# one small admissible query per family, with p^2 | n for SL (adjoint-int)
_TABLE_QUERIES = {
    Family.SL: (GroupContext(Family.SL, 4, 2), T("2^2")),
    Family.SP: (GroupContext(Family.SP, 6, 3), T("3^2")),
    Family.SO: (GroupContext(Family.SO, 6, 3), T("3^2")),
}
# modules defined for one family only; every other module takes all three
_ONLY_FAMILY = {
    "l_omega2": Family.SP,
    "l_2omega1": Family.SO,
    "adjoint-sc": Family.SL,
    "adjoint-ad": Family.SL,
    "adjoint-int": Family.SL,
}


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("name", sorted([*(m.value for m in ModuleSpec), *_MODULE_ALIASES]))
def test_module_table_entry_families_and_engines(name, family):
    module = ModuleSpec.parse(name)
    ctx, jt = _TABLE_QUERIES[family]
    if _ONLY_FAMILY.get(str(module), family) is not family:
        with pytest.raises(ValueError, match="needs family"):
            validate_query(jt, ctx, module)
        return
    validate_query(jt, ctx, module)
    assert closed_form_type(jt, ctx, module) == oracle_type(jt, ctx, module)


def test_nilpotent_operator_validation():
    op = NilpotentOperator(GFpMatrix.identity(3, 2), ModuleSpec.NATURAL)
    with pytest.raises(ValueError, match="not nilpotent"):
        op.jordan_type()


# -- admissibility witnesses and exhaustive small cross-checks ---------------------------


def _is_skew_adjoint(x, g):
    return (x.transpose() @ g + g @ x).is_zero()


def test_witness_sp14_example():
    ctx = GroupContext(Family.SP, 14, 3)
    jt = T("3^2,4^2")
    x, g = admissible_witness(jt, ctx)
    assert jordan_type_of_nilpotent(x) == jt
    assert _is_skew_adjoint(x, g)
    assert g.rank() == 14
    assert (g.transpose() + g).is_zero()  # alternating (p odd: skew-symmetric suffices)


def test_witness_covers_small_admissible_partitions():
    for family, dims in ((Family.SP, (4, 6)), (Family.SO, (5, 6, 7))):
        for n in dims:
            ctx = GroupContext(family, n, 3)
            for jt in enumerate_partitions(n):
                if not is_admissible(jt, ctx):
                    continue
                x, g = admissible_witness(jt, ctx)
                assert jordan_type_of_nilpotent(x) == jt
                assert _is_skew_adjoint(x, g)
                assert g.rank() == n
                if family is Family.SP:
                    assert (g.transpose() + g).is_zero()
                    assert not np.any(np.diagonal(g.a))
                else:
                    assert g.transpose() == g


def test_witness_rejects_sl_and_inadmissible():
    with pytest.raises(ValueError, match="Sp and SO only"):
        admissible_witness(T("2"), GroupContext(Family.SL, 2, 3))
    with pytest.raises(ValueError, match="not admissible"):
        admissible_witness(T("3,1"), GroupContext(Family.SP, 4, 3))


def _lie_algebra_basis(g: GFpMatrix) -> list[np.ndarray]:
    # matrices X with X^T G + G X = 0, found from the kernel of the
    # linearised condition applied to matrix units
    n = g.rows
    p = g.p
    columns = []
    for a in range(n):
        for b in range(n):
            unit = np.zeros((n, n), dtype=np.int64)
            unit[a, b] = 1
            image = (unit.T @ g.a + g.a @ unit) % p
            columns.append(image.reshape(-1))
    constraint = GFpMatrix(p, np.column_stack(columns))
    kernel = nullspace(constraint)
    return [kernel.a[:, k].reshape(n, n) for k in range(kernel.cols)]


def _rank_mod_p(arr, p):
    return len(_row_echelon(arr % p, p)[1])


def _exhaustive_nilpotent_types(g: GFpMatrix) -> set[JordanType]:
    p = g.p
    n = g.rows
    basis = _lie_algebra_basis(g)
    mats = np.stack(basis)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(basis))), dtype=np.int64)
    xs = np.einsum("ck,kij->cij", coeffs, mats) % p
    power = xs
    for _ in range(n - 1):
        power = np.matmul(power, xs) % p
    nilpotent = xs[~power.any(axis=(1, 2))]
    types = set()
    for x in nilpotent:
        ranks = [n]
        y = x
        while ranks[-1] > 0:
            ranks.append(_rank_mod_p(y, p))
            y = (y @ x) % p
        counts = {}
        for size in range(1, len(ranks)):
            after = ranks[size + 1] if size + 1 < len(ranks) else 0
            r = ranks[size - 1] - 2 * ranks[size] + after
            if r:
                counts[size] = r
        types.add(JordanType(counts))
    return types


@pytest.mark.parametrize("family,n", [(Family.SO, 5), (Family.SP, 4)])
def test_exhaustive_small_lie_algebra_types_are_admissible(family, n):
    # every element of the full Lie algebra over GF(3), enumerated outright
    ctx = GroupContext(family, n, 3)
    g = GFpMatrix(3, np.rot90(np.eye(n, dtype=np.int64))) if family is Family.SO else None
    if family is Family.SP:
        half = n // 2
        eye = np.eye(half, dtype=np.int64)
        zero = np.zeros((half, half), dtype=np.int64)
        g = GFpMatrix(3, np.block([[zero, eye], [-eye, zero]]))
    realized = _exhaustive_nilpotent_types(g)
    for jt in realized:
        assert is_admissible(jt, ctx), f"validator rejected realized type {jt}"
    assert JordanType({1: n}) in realized
    # the specific inadmissible shape stays unrealized
    if family is Family.SO:
        assert T("2,3") not in realized
    else:
        assert T("1,3") not in realized
