"""Exact linear algebra over prime fields GF(p): dense storage, elimination
on sparse rows.

Matrices are stored as dense int64 arrays of residues and every operation
reduces mod p, so all results are exact as long as p <= MAX_MODULUS: every
int64 intermediate is at most (p - 1)**2 + p in absolute value, which stays
below 2**63.  Larger moduli are refused.  Gaussian elimination works on
each row's nonzeros, held as a dict of Python integers, and writes its
echelon form back into one dense int64 array.  Matrix products are
internally routed through float64 BLAS when the dot products provably fit
below 2**53, and otherwise summed in int64 over slices of the inner
dimension short enough not to wrap; the stored representation stays
integral either way.  The rank chain of
:func:`jordan_type_of_nilpotent` uses no such product: it applies its sparse
operator by row gathers in int64.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .partitions import JordanType, is_prime

_FLOAT_EXACT_BOUND = 2.0**53
_INT64_BOUND = 2**63
# the largest modulus the int64 kernels handle exactly
MAX_MODULUS = math.isqrt(_INT64_BOUND - 1)


def check_modulus(p: int) -> None:
    """Refuse a modulus that is not prime, or above MAX_MODULUS, where int64
    arithmetic could wrap."""
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds {MAX_MODULUS}, the largest exact in int64")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    # entries lie in [0, p); the worst dot product is (p-1)^2 * inner_dim
    if (p - 1) ** 2 * a.shape[1] < _FLOAT_EXACT_BOUND:
        prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        return np.mod(prod, p).astype(np.int64)
    check_modulus(p)
    # a residue plus `step` products of residues stays below 2**63
    step = (_INT64_BOUND - p) // (p - 1) ** 2
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, a.shape[1], step):
        out = (out + a[:, k : k + step] @ b[k : k + step]) % p
    return out


def _row_echelon(arr: np.ndarray, p: int, reduced: bool = False):
    """Gaussian elimination of ``arr`` (entries in [0, p)); returns a new
    int64 echelon array and the pivot columns.

    Each row is a ``{column: residue}`` dict of its nonzeros, in Python
    integers.  A heap of (leading column, row position) entries yields the
    next pivot column and, in order, every row at or below the pivot
    position that starts there, so a column without a pivot costs nothing.
    The first of those rows is the pivot: it swaps places with the row at
    the pivot position and is normalised, and only the other rows, plus with
    ``reduced`` the rows above that have a nonzero in its column, are
    updated, each on its nonzeros alone.  A row moved or updated is pushed
    again under its new lead; the entry it leaves behind names a position
    above the next pivot, or was popped, so stale entries are skipped.
    """
    arr = np.asarray(arr)
    n_rows, n_cols = arr.shape
    nz_rows, nz_cols = np.nonzero(arr)
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    for i, k, v in zip(nz_rows.tolist(), nz_cols.tolist(), arr[nz_rows, nz_cols].tolist()):
        rows[i][k] = v
    # np.nonzero is row-major, so each row's first key is its leading column
    heap = [(next(iter(row)), pos) for pos, row in enumerate(rows) if row]
    heapq.heapify(heap)

    pivots: list[int] = []
    r = 0
    while heap:
        c, i = heapq.heappop(heap)
        if i < r:
            continue  # stale: a pivot row holds that position now
        hits = []
        while heap and heap[0][0] == c:
            h = heapq.heappop(heap)[1]
            if h >= r:
                hits.append(h)
        pivot = rows[i]
        if i != r:
            moved = rows[r]  # starts right of c: a row at r starting at c would be the pivot
            rows[r], rows[i] = pivot, moved
            if moved:
                heapq.heappush(heap, (min(moved), i))
        inv = pow(pivot[c], -1, p)
        if inv != 1:
            pivot = rows[r] = {k: v * inv % p for k, v in pivot.items()}
        if reduced:
            hits.extend(h for h in range(r) if c in rows[h])
        tail = [(k, v) for k, v in pivot.items() if k != c]
        for h in hits:
            row = rows[h]
            f = row.pop(c)
            for k, v in tail:
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]  # x == 0 needs row[k] == f * v != 0
            if h > r and row:
                heapq.heappush(heap, (min(row), h))
        pivots.append(c)
        r += 1

    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    flat = [pos * n_cols + k for pos, row in enumerate(rows) for k in row]
    out.flat[flat] = [v for row in rows for v in row.values()]
    return out, pivots


class GFpMatrix:
    """Immutable dense matrix over GF(p) with entries reduced into [0, p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        check_modulus(p)
        arr = np.asarray(data)
        if arr.dtype.kind not in "iub":
            raise ValueError(f"matrix data must be integer or bool, got dtype {arr.dtype}")
        if arr.dtype.kind == "u":
            arr = arr % np.uint64(p)  # uint64 values above 2**63 would wrap in int64
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        arr = np.mod(arr, p)
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", arr)

    @classmethod
    def _wrap(cls, p: int, arr: np.ndarray) -> "GFpMatrix":
        """Wrap, without checking, copying or reducing, an int64 array with
        entries in [0, p) that no caller holds: one this module built, or a
        view of another matrix's read-only array.  Arrays from outside go
        through ``__init__``, so no caller's array is frozen or aliased."""
        arr.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "a", arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("GFpMatrix is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "GFpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "GFpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    # -- shape -----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def _check_field(self, other: "GFpMatrix"):
        if self.p != other.p:
            raise ValueError(f"field mismatch: GF({self.p}) vs GF({other.p})")

    # -- arithmetic ------------------------------------------------------------

    def __matmul__(self, other: "GFpMatrix") -> "GFpMatrix":
        if not isinstance(other, GFpMatrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch for product: {self.shape} @ {other.shape}")
        return GFpMatrix._wrap(self.p, _matmul_mod(self.a, other.a, self.p))

    def __add__(self, other: "GFpMatrix") -> "GFpMatrix":
        if not isinstance(other, GFpMatrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for sum: {self.shape} + {other.shape}")
        return GFpMatrix(self.p, self.a + other.a)

    def __sub__(self, other: "GFpMatrix") -> "GFpMatrix":
        if not isinstance(other, GFpMatrix):
            return NotImplemented
        self._check_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch for difference: {self.shape} - {other.shape}")
        return GFpMatrix(self.p, self.a - other.a)

    def __pow__(self, k: int) -> "GFpMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix powers are not supported; use inverse()")
        result = GFpMatrix.identity(self.p, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def transpose(self) -> "GFpMatrix":
        return GFpMatrix._wrap(self.p, self.a.T)

    # -- predicates and queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFpMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    __hash__ = None  # mutable-array backed; not hashable

    def rank(self) -> int:
        """Exact rank by Gaussian elimination mod p."""
        if 0 in self.shape:
            return 0
        _, pivots = _row_echelon(self.a, self.p)
        return len(pivots)

    def __repr__(self) -> str:
        return f"GFpMatrix(p={self.p}, shape={self.shape})"


def vstack(mats: list[GFpMatrix]) -> GFpMatrix:
    p = mats[0].p
    return GFpMatrix(p, np.vstack([m.a for m in mats]))


def inverse(m: GFpMatrix) -> GFpMatrix:
    """Inverse of a square invertible matrix; errors if singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = np.hstack([m.a, np.eye(n, dtype=np.int64)])
    red, pivots = _row_echelon(aug, m.p, reduced=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular over GF(p)")
    return GFpMatrix._wrap(m.p, red[:, n:])


def nullspace(m: GFpMatrix) -> GFpMatrix:
    """Columns form a basis of the right kernel (may have zero columns)."""
    red, pivots = _row_echelon(m.a, m.p, reduced=True)
    p = m.p
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-red[r, c]) % p
    return GFpMatrix(p, basis)


def solve_columns(basis: GFpMatrix, rhs: GFpMatrix) -> GFpMatrix:
    """Solve ``basis @ X = rhs`` column by column.

    ``basis`` must have full column rank and each column of ``rhs`` must lie
    in its span; both conditions are errors otherwise.  Used to express the
    action of an operator in the coordinates of an invariant subspace.
    """
    basis._check_field(rhs)
    if basis.rows != rhs.rows:
        raise ValueError("basis and right-hand side have different ambient dimensions")
    k = basis.cols
    aug = np.hstack([basis.a, rhs.a])
    red, pivots = _row_echelon(aug, basis.p, reduced=True)
    # full column rank iff every basis column is a pivot column
    if len(pivots) < k or pivots[:k] != list(range(k)):
        raise ValueError("basis is rank-deficient")
    if len(pivots) > k:
        raise ValueError("right-hand side is not in the span of the basis")
    return GFpMatrix(basis.p, red[:k, k:])


def column_space_basis(m: GFpMatrix) -> GFpMatrix:
    """A deterministic basis of the column space, as matrix columns."""
    red, pivots = _row_echelon(m.a.T, m.p)
    return GFpMatrix._wrap(m.p, red[: len(pivots)].T)


def is_nilpotent(m: GFpMatrix) -> bool:
    """Repeated-squaring nilpotency check."""
    if m.rows != m.cols:
        return False
    power = m
    covered = 1
    while covered < m.rows:
        if power.is_zero():
            return True
        power = power @ power
        covered *= 2
    return power.is_zero()


def jordan_type_of_nilpotent(m: GFpMatrix) -> JordanType:
    """Jordan type of a nilpotent matrix via the rank identity
    ``r_k = rank(m^(k-1)) - 2 rank(m^k) + rank(m^(k+1))`` with rank(m^0) = dim.

    Ranks of successive powers are computed on a shrinking chain of image
    bases, which is equivalent to eliminating each power directly but far
    cheaper.  Each image ``m @ basis`` is built from the nonzeros of ``m``
    alone: row i is the sum of the basis rows j with m[i, j] != 0, each
    scaled by m[i, j].  The lifted operators have a few nonzeros per row, so
    this gathers far fewer terms than a dense product multiplies.  Every
    term is reduced below p before the sums, which therefore stay below
    dim * p and are exact in int64.  Non-nilpotent input is an error,
    caught by the rank chain failing to fall: it signals an operator
    construction bug, e.g. a wrong sign in a dual action.
    """
    if m.rows != m.cols:
        raise ValueError("matrix not square")
    dim = m.rows
    if dim == 0:
        return JordanType()
    p = m.p
    # nonzeros of m in row order; row heads[k] sums the terms from starts[k]
    rows, cols = np.nonzero(m.a)
    vals = m.a[rows, cols, None]
    heads, starts = np.unique(rows, return_index=True)

    # a function, so that no earlier image or its terms stay alive while
    # the next image is built
    def image(basis: GFpMatrix) -> GFpMatrix:
        terms = basis.a[cols]
        terms *= vals
        terms %= p
        sums = np.add.reduceat(terms, starts, axis=0)
        sums %= p
        prod = np.zeros((dim, basis.cols), dtype=np.int64)
        prod[heads] = sums
        return GFpMatrix._wrap(p, prod)

    ranks = [dim]
    basis = column_space_basis(m)
    while True:
        r = basis.cols
        if r >= ranks[-1] and r > 0:
            raise ValueError("matrix not nilpotent")  # rank chain must strictly decrease
        ranks.append(r)
        if r == 0:
            break
        basis = column_space_basis(image(basis))
    counts: dict[int, int] = {}
    for size in range(1, len(ranks)):
        after = ranks[size + 1] if size + 1 < len(ranks) else 0
        r_size = ranks[size - 1] - 2 * ranks[size] + after
        if r_size < 0:
            raise ValueError("matrix not nilpotent")
        if r_size:
            counts[size] = r_size
    jt = JordanType(counts)
    if jt.total_dim != dim:
        raise AssertionError("rank bookkeeping error in Jordan type computation")
    return jt
