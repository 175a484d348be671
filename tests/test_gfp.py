import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanblocks import (
    GFpMatrix,
    JordanType,
    enumerate_partitions,
    jordan_type_of_nilpotent,
    lift_to_sym2,
    lift_to_tensor,
    lift_to_wedge2,
    natural_nilpotent,
    natural_unipotent,
)
from jordanblocks.partitions import is_prime
from jordanblocks.gfp import (
    MAX_MODULUS,
    _matmul_mod,
    _row_echelon,
    column_space_basis,
    inverse,
    is_nilpotent,
    nullspace,
    solve_columns,
    vstack,
)


def shift(p, d):
    a = np.zeros((d, d), dtype=np.int64)
    for j in range(1, d):
        a[j - 1, j] = 1
    return GFpMatrix(p, a)


def test_init_copies_and_results_are_read_only():
    arr = np.array([[1, 2], [0, 1]], dtype=np.int64)
    m = GFpMatrix(5, arr)
    arr[0, 0] = 4
    assert m.a.tolist() == [[1, 2], [0, 1]]
    assert arr.flags.writeable
    for result in (m, m @ m, m.transpose(), inverse(m), column_space_basis(m)):
        assert not result.a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            result.a[0, 0] = 3


def test_entries_reduced():
    m = GFpMatrix(3, [[4, -1], [9, 5]])
    assert m.a.tolist() == [[1, 2], [0, 2]]
    with pytest.raises(ValueError, match="not prime"):
        GFpMatrix(6, [[1]])
    with pytest.raises(ValueError, match="two-dimensional"):
        GFpMatrix(3, [1, 2, 3])


@pytest.mark.parametrize(
    "data, dtype",
    [
        ([[0.5, 2.7]], "float64"),
        (np.array([[1e30]]), "float64"),
        (np.array([[1.0]], dtype=np.float32), "float32"),
        (np.array([[1 + 0j]]), "complex128"),
        ([[2**70]], "object"),
        ([["1"]], "<U1"),
    ],
)
def test_non_integer_data_refused(data, dtype):
    with pytest.raises(ValueError, match=f"dtype {dtype}"):
        GFpMatrix(5, data)


def test_integer_and_bool_data_accepted():
    assert GFpMatrix(5, np.array([[True, False]])).a.tolist() == [[1, 0]]
    assert GFpMatrix(5, np.array([[7, 255]], dtype=np.uint8)).a.tolist() == [[2, 0]]
    assert GFpMatrix(5, np.array([[2**64 - 1]], dtype=np.uint64)).a.tolist() == [[0]]
    assert GFpMatrix(5, np.array([[-1]], dtype=np.int8)).a.tolist() == [[4]]


def test_matmul_identity_and_shapes():
    m = GFpMatrix(5, [[1, 2], [3, 4]])
    assert GFpMatrix.identity(5, 2) @ m == m
    with pytest.raises(ValueError, match="shape mismatch"):
        m @ GFpMatrix(5, [[1, 2, 3]])
    with pytest.raises(ValueError, match="field mismatch"):
        m @ GFpMatrix(3, [[1, 0], [0, 1]])


def test_shift_block_products():
    j2 = shift(3, 2)
    assert (j2 @ j2).is_zero()
    j3 = shift(2, 3)
    sq = j3 @ j3
    # squared shift has its only 1 in the top right corner
    expect = np.zeros((3, 3), dtype=np.int64)
    expect[0, 2] = 1
    assert sq.a.tolist() == expect.tolist()


def test_matmul_exact_vs_python_ints():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        a = rng.integers(0, p, size=(13, 9))
        b = rng.integers(0, p, size=(9, 11))
        fast = (GFpMatrix(p, a) @ GFpMatrix(p, b)).a
        slow = np.array(
            [[sum(int(x) * int(y) for x, y in zip(ra, cb)) % p for cb in b.T] for ra in a]
        )
        assert np.array_equal(fast, slow)


def _dense_row_echelon(arr, p, reduced=False):
    """Reference: plain dense elimination, every pivot updates every row."""
    a = np.array(arr, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        a[r + 1 :] = (a[r + 1 :] - np.outer(a[r + 1 :, c], a[r])) % p
        if reduced:
            a[:r] = (a[:r] - np.outer(a[:r, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


# the largest prime the int64 kernels admit
LARGEST_PRIME = 3037000493


@settings(max_examples=300)
@given(
    st.integers(0, 24),
    st.integers(0, 24),
    st.sampled_from([2, 3, 5, 7, 65521, LARGEST_PRIME]),
    st.sampled_from(["dense", "sparse", "low-rank", "lifted"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_row_echelon_matches_dense_reference(rows, cols, p, kind, reduced, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        a = rng.integers(0, p, size=(rows, cols))
    elif kind == "sparse":  # at most 5% nonzero
        a = rng.integers(1, p, size=(rows, cols)) * (rng.random((rows, cols)) < 0.05)
    elif kind == "low-rank":
        k = int(rng.integers(0, 4))
        a = rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
    else:  # what the rank chain eliminates: a transposed operator on a square of V
        parts = list(enumerate_partitions(int(rng.integers(2, 7))))
        jt = parts[int(rng.integers(len(parts)))]
        unipotent = bool(rng.integers(2))
        m = natural_unipotent(jt, p) if unipotent else natural_nilpotent(jt, p).matrix
        lift = [lift_to_tensor, lift_to_wedge2, lift_to_sym2][int(rng.integers(3))]
        a = lift(m, unipotent=unipotent).matrix.a.T
    if kind != "lifted":
        a[rng.random(rows) < 0.2] = 0
        a[:, rng.random(cols) < 0.2] = 0
    echelon, pivots = _row_echelon(a, p, reduced)
    want_echelon, want_pivots = _dense_row_echelon(a, p, reduced)
    assert echelon.dtype == np.int64
    assert np.array_equal(echelon, want_echelon)
    assert pivots == want_pivots


def test_modulus_bound():
    assert (MAX_MODULUS - 1) ** 2 + MAX_MODULUS < 2**63
    assert not any(is_prime(q) for q in range(LARGEST_PRIME + 1, MAX_MODULUS + 1))
    assert is_prime(LARGEST_PRIME) and is_prime(4294967311)
    with pytest.raises(ValueError, match=f"exceeds {MAX_MODULUS}"):
        GFpMatrix(4294967311, [[1]])
    with pytest.raises(ValueError, match=f"exceeds {MAX_MODULUS}"):
        _matmul_mod(np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=np.int64), 4294967311)


def test_exact_at_largest_modulus():
    # entries near p - 1: each product is close to 2**63, so an unsliced
    # int64 dot product would wrap
    p = LARGEST_PRIME
    rng = np.random.default_rng(11)
    a = p - 1 - rng.integers(0, 3, size=(4, 7))
    b = p - 1 - rng.integers(0, 3, size=(7, 5))
    fast = (GFpMatrix(p, a) @ GFpMatrix(p, b)).a
    slow = [[sum(int(x) * int(y) for x, y in zip(ra, cb)) % p for cb in b.T] for ra in a]
    assert fast.tolist() == slow
    u = GFpMatrix(p, np.triu(p - 1 - rng.integers(0, 3, size=(6, 6)), 1) + np.eye(6, dtype=np.int64))
    assert u @ inverse(u) == GFpMatrix.identity(p, 6)
    assert GFpMatrix(p, a).rank() == GFpMatrix(p, a).transpose().rank()


def test_rank_basics():
    assert GFpMatrix.zeros(5, 4, 4).rank() == 0
    assert shift(7, 5).rank() == 4
    assert GFpMatrix.identity(3, 6).rank() == 6
    assert GFpMatrix(2, [[1, 1], [1, 1]]).rank() == 1


def test_rank_of_tensor_action_regular_n3_p3():
    # x (x) 1 + 1 (x) y on a 9-dim space; rank is dim minus block count = 9 - 3
    e = shift(3, 3).a
    eye = np.eye(3, dtype=np.int64)
    big = GFpMatrix(3, np.kron(e, eye) - np.kron(eye, e.T))
    assert big.rank() == 6


@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([2, 3, 5]), st.integers(0, 10**6))
def test_rank_equals_rank_of_transpose(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    m = GFpMatrix(p, rng.integers(0, p, size=(rows, cols)))
    assert m.rank() == m.transpose().rank()


def test_power_and_inverse():
    j = shift(5, 4)
    assert (j**0) == GFpMatrix.identity(5, 4)
    assert (j**4).is_zero()
    u = GFpMatrix.identity(5, 4) + j
    ui = inverse(u)
    assert u @ ui == GFpMatrix.identity(5, 4)
    with pytest.raises(ValueError, match="singular"):
        inverse(GFpMatrix.zeros(5, 2, 2))


def test_nullspace_and_solve():
    m = GFpMatrix(3, [[1, 2, 0], [0, 0, 1]])
    ns = nullspace(m)
    assert ns.cols == 1
    assert (m @ ns).is_zero()
    basis = GFpMatrix(3, [[1, 0], [0, 1], [0, 0]])
    rhs = GFpMatrix(3, [[2, 1], [1, 0], [0, 0]])
    x = solve_columns(basis, rhs)
    assert basis @ x == rhs
    with pytest.raises(ValueError, match="not in the span"):
        solve_columns(basis, GFpMatrix(3, [[0], [0], [1]]))
    with pytest.raises(ValueError, match="rank-deficient"):
        solve_columns(GFpMatrix(3, [[1, 2], [2, 4], [0, 0]]), rhs)


def test_column_space_basis_spans():
    m = GFpMatrix(5, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    b = column_space_basis(m)
    assert b.cols == m.rank() == 2
    # every column of m solves against the basis
    solve_columns(b, m)


def test_jordan_type_examples():
    assert jordan_type_of_nilpotent(GFpMatrix.zeros(5, 3, 3)) == JordanType({1: 3})
    block = np.zeros((5, 5), dtype=np.int64)
    block[0, 1] = 1  # J2 at offset 0
    block[2, 3] = block[3, 4] = 1  # J3 at offset 2
    assert jordan_type_of_nilpotent(GFpMatrix(5, block)) == JordanType({2: 1, 3: 1})
    assert jordan_type_of_nilpotent(shift(3, 5)) == JordanType({5: 1})


def test_jordan_type_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_type_of_nilpotent(GFpMatrix.identity(3, 4))
    with pytest.raises(ValueError, match="not square"):
        jordan_type_of_nilpotent(GFpMatrix.zeros(3, 2, 3))
    assert not is_nilpotent(GFpMatrix.identity(3, 2))
    assert is_nilpotent(shift(3, 4))


def _dense_jordan_type(m):
    """Reference: the rank chain with the dense product ``m @ basis``."""
    ranks = [m.rows]
    image = m
    while True:
        basis = column_space_basis(image)
        if basis.cols >= ranks[-1] and basis.cols > 0:
            raise ValueError("matrix not nilpotent")
        ranks.append(basis.cols)
        if basis.cols == 0:
            break
        image = m @ basis
    ranks.append(0)
    counts = {k: ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] for k in range(1, len(ranks) - 1)}
    return JordanType({k: c for k, c in counts.items() if c})


def _conjugated_shift(sizes, p, conjugator, rng, unit=0):
    """Block shift of the given sizes, plus a 1 x 1 block ``unit`` when it is
    nonzero, conjugated by a sparse unitriangular or a dense invertible matrix."""
    n = sum(sizes) + (unit != 0)
    a = np.zeros((n, n), dtype=np.int64)
    start = 0
    for d in sizes:
        a[start : start + d, start : start + d] = np.eye(d, k=1, dtype=np.int64)
        start += d
    a[n - 1, n - 1] += unit
    if conjugator == "sparse":  # about 10% of the entries above the diagonal
        upper = rng.integers(1, p, size=(n, n)) * (rng.random((n, n)) < 0.1)
        g = np.triu(upper, 1) + np.eye(n, dtype=np.int64)
    else:  # a dense lower times a dense upper unitriangular matrix
        lower = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.eye(n, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        g = (GFpMatrix(p, lower) @ GFpMatrix(p, upper)).a
    g = GFpMatrix(p, g)
    return g @ GFpMatrix(p, a) @ inverse(g)


@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=8).map(
        lambda sizes: [d for i, d in enumerate(sizes) if sum(sizes[: i + 1]) <= 23]
    ),
    st.sampled_from([2, 3, 5, 7, 65521]),
    st.sampled_from(["sparse", "dense"]),
    st.integers(0, 2**32 - 1),
)
def test_jordan_type_matches_dense_reference(sizes, p, conjugator, seed):
    rng = np.random.default_rng(seed)
    m = _conjugated_shift(sizes, p, conjugator, rng)
    want = JordanType.from_sizes(sizes)
    assert _dense_jordan_type(m) == jordan_type_of_nilpotent(m) == want
    unit = int(rng.integers(1, p))
    not_nilpotent = _conjugated_shift(sizes, p, conjugator, rng, unit=unit)
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_type_of_nilpotent(not_nilpotent)


def test_jordan_type_exact_at_largest_modulus():
    # entries near p - 1: each term of the product is close to 2**63
    p = LARGEST_PRIME
    rng = np.random.default_rng(5)
    upper = GFpMatrix(p, np.triu(p - 1 - rng.integers(0, 3, size=(12, 12)), 1))
    assert jordan_type_of_nilpotent(upper) == _dense_jordan_type(upper) == JordanType({12: 1})
    m = _conjugated_shift([4, 3, 3, 1], p, "dense", rng)
    assert jordan_type_of_nilpotent(m) == _dense_jordan_type(m) == JordanType.parse("1,3^2,4")


partitions = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(JordanType.from_sizes)


@given(partitions, partitions, st.sampled_from([2, 3, 5]))
def test_jordan_type_of_direct_sum_adds(a, b, p):
    from jordanblocks.operators import natural_nilpotent

    ma = natural_nilpotent(a, p).matrix.a
    mb = natural_nilpotent(b, p).matrix.a
    direct = np.zeros((ma.shape[0] + mb.shape[0],) * 2, dtype=np.int64)
    direct[: ma.shape[0], : ma.shape[0]] = ma
    direct[ma.shape[0] :, ma.shape[0] :] = mb
    assert jordan_type_of_nilpotent(GFpMatrix(p, direct)) == a + b


def test_stacking():
    a = GFpMatrix(3, [[1, 2]])
    b = GFpMatrix(3, [[0, 1]])
    assert vstack([a, b]).shape == (2, 2)
