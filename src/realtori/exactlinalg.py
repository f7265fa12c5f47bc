"""Exact integer, rational, and GF(2) matrix arithmetic.

Every equivalence and classification test in the package bottoms out here,
over Python's arbitrary-precision integers (stored in ``dtype=object`` numpy
arrays), so unimodular witnesses are exact no matter how large their entries.
Determinants and inverses use fraction-free (Bareiss) elimination.  One
integer column echelon serves the Smith normal form, integer solutions,
kernels and unimodular completions.

One rule, that of ``int_matrix``, turns outside data into exact integers:
an exact integer or an integral float is taken, anything else (NaN
included) raises ValueError, and nothing is rounded or truncated, so a
rounded float beyond 2^63 keeps its digits.  A matrix that is already
exact, a 2-D object array of Python ints, is taken as it is
(``_as_exact``), so each input is built once.  GF(2) matrices are integer
matrices mod 2.  tM J M = J is tested only in ``is_symplectic``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "int_matrix",
    "rat_matrix",
    "det_int",
    "is_unimodular",
    "unimodular_inverse",
    "symplectic_form",
    "is_symplectic",
    "symplectic_inverse",
    "gf2_matrix",
    "gf2_rank",
    "smith_normal_form",
    "integer_solve",
    "kernel_basis",
    "complete_to_unimodular",
    "random_unimodular",
]


# ---------------------------------------------------------------------------
# constructors / predicates


def int_matrix(data) -> np.ndarray:
    """Build an exact integer matrix (``dtype=object`` with Python ints);
    an entry that is not an exact integer or an integral float raises."""
    arr = np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError("integer matrix must be two-dimensional")
    for i, row in enumerate(arr.tolist()):
        for j, val in enumerate(row):
            if type(val) is int:
                continue
            if (isinstance(val, (int, np.integer, np.bool_))
                    or isinstance(val, float) and val.is_integer()
                    or isinstance(val, Fraction) and val.denominator == 1):
                arr[i, j] = int(val)
            else:
                raise ValueError(f"entry {val!r} at {(i, j)} is not an exact integer")
    return arr


def rat_matrix(data) -> np.ndarray:
    """Build an exact rational matrix (``dtype=object`` with Fractions)."""
    arr = np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError("rational matrix must be two-dimensional")
    for i, row in enumerate(arr.tolist()):
        for j, val in enumerate(row):
            if type(val) is not Fraction:
                arr[i, j] = Fraction(val)
    return arr


def _object_matrix(rows, n: int, m: int) -> np.ndarray:
    return np.array(rows, dtype=object).reshape(n, m)


def _int_vector(v) -> list[int]:
    # the entries of v, of any shape, as Python ints under the rule of int_matrix
    return int_matrix(np.asarray(v, dtype=object).reshape(1, -1))[0].tolist()


def _as_exact(M) -> np.ndarray:
    # a 2-D object array of Python ints as it is, anything else through int_matrix
    if (isinstance(M, np.ndarray) and M.dtype == object and M.ndim == 2
            and all(type(v) is int for v in M.flat)):
        return M
    return int_matrix(M)


# ---------------------------------------------------------------------------
# determinants and unimodularity


def det_int(M) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    M = _as_exact(M)
    n, m = M.shape
    if n != m:
        raise ValueError("determinant requires a square matrix")
    return _det_rows(M.tolist())


def _det_rows(rows: list) -> int:
    # det_int of a square matrix given as rows of Python ints
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(M) -> bool:
    """True iff the square integer matrix has determinant +-1."""
    return abs(det_int(M)) == 1


def unimodular_inverse(A) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan on [A | I]: every division is exact,
    and at the end the left block is p I and the right block p A^-1, with
    p = +-det A.  Raises unless p = +-1.
    """
    A = _as_exact(A)
    n, m = A.shape
    if n != m:
        raise ValueError("inverse requires a square matrix")
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(A.tolist())]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = aug[r]
                f = row[col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    if abs(prev) != 1:
        raise ValueError("matrix is not unimodular; inverse is not integral")
    return _object_matrix([[prev * v for v in row[n:]] for row in aug], n, n)


# ---------------------------------------------------------------------------
# symplectic structure


def symplectic_form(g: int) -> np.ndarray:
    """The standard alternating form (0, I_g; -I_g, 0) as an exact matrix."""
    return _symplectic_form(g).copy()


@lru_cache(maxsize=8)
def _symplectic_form(g: int) -> np.ndarray:
    # symplectic_form, built on first use of each size and shared read-only
    J = np.zeros((2 * g, 2 * g), dtype=object)
    J[:g, g:] = np.eye(g, dtype=object)
    J[g:, :g] = -np.eye(g, dtype=object)
    J.flags.writeable = False
    return J


def is_symplectic(M, tol: float | None = None) -> bool:
    """True iff tM J M = J within ``tol`` (exact for integer inputs).

    ``tol=None`` selects 0 for exact integer matrices and 1e-10 otherwise.
    """
    M = np.asarray(M)
    n, m = M.shape
    if n != m:
        raise ValueError("symplectic test requires a square matrix")
    if n % 2 != 0:
        raise ValueError("symplectic matrices have even dimension")
    J = _symplectic_form(n // 2)
    exact = M.dtype == object or np.issubdtype(M.dtype, np.integer)
    if tol is None:
        tol = 0.0 if exact else 1e-10
    if exact and tol == 0.0:
        Me = _as_exact(M)
        R = Me.T @ J @ Me - J
        return all(v == 0 for v in R.flat)
    Mf = M.astype(float)
    Jf = J.astype(float)
    return float(np.max(np.abs(Mf.T @ Jf @ Mf - Jf))) <= tol


def symplectic_inverse(M) -> np.ndarray:
    """Inverse of a symplectic matrix via the block formula (tD, -tB; -tC, tA)."""
    M = np.asarray(M)
    if not is_symplectic(M):
        raise ValueError("input is not symplectic")
    g = M.shape[0] // 2
    A, B = M[:g, :g], M[:g, g:]
    C, D = M[g:, :g], M[g:, g:]
    top = np.concatenate([D.T, -B.T], axis=1)
    bot = np.concatenate([-C.T, A.T], axis=1)
    return np.concatenate([top, bot], axis=0)


# ---------------------------------------------------------------------------
# GF(2)


def gf2_matrix(data, symmetric: bool = False) -> np.ndarray:
    """Build a GF(2) matrix (uint8): the integer matrix of ``data`` mod 2."""
    N = (_as_exact(data) % 2).astype(np.uint8)
    if symmetric and not np.array_equal(N, N.T):
        raise ValueError("matrix is not symmetric over GF(2)")
    return N


def gf2_rank(N) -> int:
    """Rank over GF(2): elimination on the rows held as bit masks."""
    return _gf2_rank(gf2_matrix(N))


def _gf2_rank(N: np.ndarray) -> int:
    # gf2_rank of a matrix gf2_matrix has built
    rows = [sum(1 << c for c, v in enumerate(row) if v) for row in N.tolist()]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            # clear the pivot's lowest bit from every other row
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# integer column echelon and its consequences


def _echelon(vecs: list[list[int]]) -> list[tuple[int, list[int]]]:
    # Integer column operations on the columns ``vecs`` (lists of Python
    # ints, changed in place), one coordinate at a time: Euclid on the
    # entries at coordinate i leaves one live column, the pivot of i, which
    # leaves the pool.  Returns (i, column) for every pivot in order of i; a
    # column that ends up all zero is never a pivot.
    pivots = []
    for i in range(len(vecs[0]) if vecs else 0):
        live = [v for v in vecs if v[i]]
        while len(live) > 1:
            p = min(live, key=lambda v: abs(v[i]))
            for v in live:
                if v is not p:
                    q = v[i] // p[i]
                    v[:] = [a - q * b for a, b in zip(v, p)]
            live = [v for v in live if v[i]]
        if live:
            vecs = [v for v in vecs if v is not live[0]]
            pivots.append((i, live[0]))
    return pivots


def _with_identity(M) -> list[list[int]]:
    # the columns of [M; I]; after ``_echelon`` their heads are H = M W and
    # their tails W
    M = _as_exact(M)
    n, m = M.shape
    return [col + [int(i == j) for i in range(m)] for j, col in enumerate(M.T.tolist())]


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form ``U @ M @ V = D`` over the integers, exactly.

    U and V are unimodular; D is diagonal with d_i | d_{i+1} and d_i >= 0.
    Column and row echelon passes alternate until D is diagonal (each pass
    can only shrink the first pivot that is not yet alone in its row and
    column); a pair d_i, d_{i+1} out of divisibility order is merged by
    adding row i + 1 to row i and the passes resume.
    """
    M = _as_exact(M)
    n, m = M.shape
    A = M.tolist()
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Vt = [[int(i == j) for j in range(m)] for i in range(m)]
    while True:
        cols = [p for _, p in _echelon([[a[j] for a in A] + Vt[j] for j in range(m)])]
        Vt = [c[n:] for c in cols]
        rows = [p for _, p in _echelon([[c[i] for c in cols] + U[i] for i in range(n)])]
        A, U = [r[:m] for r in rows], [r[m:] for r in rows]
        if any(A[i][j] for i in range(n) for j in range(m) if i != j):
            continue
        d = [A[i][i] for i in range(min(n, m))]
        bad = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
        if bad is None:
            break
        A[bad] = [a + b for a, b in zip(A[bad], A[bad + 1])]
        U[bad] = [a + b for a, b in zip(U[bad], U[bad + 1])]
    for i, v in enumerate(d):
        if v < 0:
            A[i], U[i] = [-a for a in A[i]], [-a for a in U[i]]
    return _object_matrix(U, n, n), _object_matrix(A, n, m), _object_matrix(Vt, m, m).T


def integer_solve(G, x) -> np.ndarray | None:
    """One integer solution m of ``G @ m = x``, or None if none exists.

    The pivots of G W = H are taken in order, each fixing one coefficient
    exactly; m is W times those coefficients.
    """
    G = _as_exact(G)
    n, m = G.shape
    xv = _int_vector(x)
    if len(xv) != n:
        raise ValueError("dimension mismatch")
    # rest = [x; 0] - sum q_j [h_j; w_j] ends as [0; -m] when x = G m; a
    # remainder left at a pivot's row is never touched by a later pivot
    rest = xv + [0] * m
    for i, p in _echelon(_with_identity(G)):
        if i >= n:
            break
        q = rest[i] // p[i]
        rest = [a - q * b for a, b in zip(rest, p)]
    if any(rest[:n]):
        return None
    return np.array([-v for v in rest[n:]], dtype=object)


def kernel_basis(M) -> np.ndarray:
    """Columns: the Hermite basis of the saturated integer kernel of M.

    The column echelon of [M; I] (the one that also serves ``integer_solve``,
    ``complete_to_unimodular`` and ``smith_normal_form``) ends with the
    columns (0, x) for x running over a basis of the kernel; their pivots
    are made positive and every entry above a pivot is reduced modulo it.
    This basis is unique.  On the 8 x 8 involutions of ``cohomology`` its
    entries keep within twice the digits of M, where a Smith transformation
    reaches thousands of digits.
    """
    M = _as_exact(M)
    n, m = M.shape
    basis: list[list[int]] = []
    for i, p in _echelon(_with_identity(M)):
        if i < n:  # M x != 0 for this column
            continue
        if p[i] < 0:
            p[:] = [-a for a in p]
        for b in basis:
            q = b[i] // p[i]
            b[:] = [a - q * c for a, c in zip(b, p)]
        basis.append(p)
    return _object_matrix([b[n:] for b in basis], len(basis), m).T


def complete_to_unimodular(rows) -> np.ndarray:
    """Extend a primitive k x g integer matrix to a unimodular g x g matrix.

    The given rows become the first k rows of the result.  B W = (H, 0) with
    W unimodular, so B = H (W^-1)_{:k}; H is unimodular exactly when the rows
    span a primitive sublattice (else this raises), and the last g - k rows
    of W^-1 complete B.
    """
    B = _as_exact(rows)
    k, g = B.shape
    if k > g:
        raise ValueError("more rows than columns")
    pivots = _echelon(_with_identity(B))
    if any(i != j or abs(p[i]) != 1 for j, (i, p) in enumerate(pivots[:k])):
        raise ValueError("rows are not primitive; no unimodular completion")
    W = _object_matrix([p[k:] for _, p in pivots], g, g).T
    out = np.empty((g, g), dtype=object)
    out[:k, :] = B
    out[k:, :] = unimodular_inverse(W)[k:, :]
    if abs(det_int(out)) != 1:
        raise AssertionError("completion failed to be unimodular")
    return out


def random_unimodular(g: int, rng: np.random.Generator, max_entry: int = 3,
                      steps: int = 12) -> np.ndarray:
    """Random unimodular integer matrix with entries bounded by ``max_entry``.

    Built as a word of elementary row operations and signed permutations,
    rejecting any step that would exceed the entry bound.
    """
    A = np.eye(g, dtype=object)
    done = 0
    attempts = 0
    while done < steps and attempts < 60 * steps:
        attempts += 1
        kind = rng.integers(0, 3)
        B = A.copy()
        if kind == 0 and g >= 2:
            i, j = rng.choice(g, size=2, replace=False)
            s = int(rng.choice([-1, 1]))
            B[i, :] = B[i, :] + s * B[j, :]
        elif kind == 1:
            i = int(rng.integers(0, g))
            B[i, :] = -B[i, :]
        else:
            perm = rng.permutation(g)
            B = B[perm, :]
        if max(abs(int(v)) for v in B.flat) <= max_entry:
            A = B
            done += 1
    return A
