"""Dense exact linear algebra over prime fields GF(p).

Residues are stored in int64 arrays and every operation reduces mod p, so
all results are exact as long as p <= MAX_MODULUS: every intermediate is at
most (p - 1)**2 + p in absolute value, which stays below 2**63.  Larger
moduli are refused.  Matrix products are internally routed through float64
BLAS when the dot products provably fit below 2**53, and otherwise summed in
int64 over slices of the inner dimension short enough not to wrap; the
stored representation stays integral either way.
"""

from __future__ import annotations

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
    """Elimination on a copy of ``arr`` (entries in [0, p)); returns
    (echelon, pivot cols).

    A pivot updates only the rows with a nonzero entry in its column, and
    only from its column on: rows at or below it are zero to its left.  The
    lifted operators stay sparse, so most rows need no update at all.
    """
    a = np.array(arr, dtype=np.int64)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        hit = r + nz[1:]  # rows below with a nonzero in column c; the swap put a zero at i
        if reduced and r > 0:
            hit = np.concatenate([a[:r, c].nonzero()[0], hit])
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(a[hit, c], a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a, pivots


class GFpMatrix:
    """Immutable dense matrix over GF(p) with entries reduced into [0, p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        check_modulus(p)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        arr = np.mod(arr, p)
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", arr)

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
        return GFpMatrix(self.p, _matmul_mod(self.a, other.a, self.p))

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
        return GFpMatrix(self.p, self.a.T)

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

    # -- plain text dump ---------------------------------------------------------

    def to_text(self) -> str:
        """Dump: header line ``p rows cols``, then one row per line."""
        lines = [f"{self.p} {self.rows} {self.cols}"]
        lines.extend(" ".join(str(int(x)) for x in row) for row in self.a)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GFpMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix dump")
        p, rows, cols = (int(x) for x in lines[0].split())
        if len(lines) != rows + 1:
            raise ValueError("matrix dump has wrong number of rows")
        data = [[int(x) for x in ln.split()] for ln in lines[1:]]
        m = cls(p, data)
        if m.shape != (rows, cols):
            raise ValueError("matrix dump header does not match data")
        return m


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
    return GFpMatrix(m.p, red[:, n:])


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
    return GFpMatrix(m.p, red[: len(pivots)].T)


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
    cheaper.  Non-nilpotent input is an error, caught by the rank chain
    failing to fall: it signals an operator construction bug, e.g. a wrong
    sign in a dual action.
    """
    if m.rows != m.cols:
        raise ValueError("matrix not square")
    dim = m.rows
    if dim == 0:
        return JordanType()
    ranks = [dim]
    image = m
    while True:
        basis = column_space_basis(image)
        r = basis.cols
        if r >= ranks[-1] and r > 0:
            raise ValueError("matrix not nilpotent")  # rank chain must strictly decrease
        ranks.append(r)
        if r == 0:
            break
        image = m @ basis
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
