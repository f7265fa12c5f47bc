"""Exact integer, rational, and GF(2) matrix arithmetic.

Every equivalence and classification test in the package bottoms out here:
determinants and Smith normal forms are computed fraction-free over Python's
arbitrary-precision integers (stored in ``dtype=object`` numpy arrays), so
unimodular witnesses are exact no matter how fast their entries grow.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Build an exact integer matrix (``dtype=object`` with Python ints)."""
    arr = np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError("integer matrix must be two-dimensional")
    out = np.empty(arr.shape, dtype=object)
    for idx, val in np.ndenumerate(arr):
        if isinstance(val, (bool, np.bool_)):
            out[idx] = int(val)
        elif isinstance(val, (int, np.integer)):
            out[idx] = int(val)
        elif isinstance(val, float) and float(val).is_integer():
            out[idx] = int(val)
        elif isinstance(val, Fraction) and val.denominator == 1:
            out[idx] = int(val)
        else:
            raise ValueError(f"entry {val!r} at {idx} is not an exact integer")
    return out


def rat_matrix(data) -> np.ndarray:
    """Build an exact rational matrix (``dtype=object`` with Fractions)."""
    arr = np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError("rational matrix must be two-dimensional")
    out = np.empty(arr.shape, dtype=object)
    for idx, val in np.ndenumerate(arr):
        out[idx] = Fraction(val)
    return out


def _as_exact(M) -> np.ndarray:
    return M if (isinstance(M, np.ndarray) and M.dtype == object) else int_matrix(M)


# ---------------------------------------------------------------------------
# determinants and unimodularity


def det_int(M) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    M = _as_exact(M)
    n, m = M.shape
    if n != m:
        raise ValueError("determinant requires a square matrix")
    return _det_rows([[int(M[i, j]) for j in range(n)] for i in range(n)])


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
    aug = [[int(v) for v in A[i]] + [int(i == j) for j in range(n)] for i in range(n)]
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
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = prev * aug[i][j + n]
    return out


# ---------------------------------------------------------------------------
# symplectic structure


def symplectic_form(g: int) -> np.ndarray:
    """The standard alternating form (0, I_g; -I_g, 0) as an exact matrix."""
    J = np.zeros((2 * g, 2 * g), dtype=object)
    J[:g, g:] = np.eye(g, dtype=object)
    J[g:, :g] = -np.eye(g, dtype=object)
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
    g = n // 2
    exact = M.dtype == object or np.issubdtype(M.dtype, np.integer)
    if tol is None:
        tol = 0.0 if exact else 1e-10
    if exact and tol == 0.0:
        Me = _as_exact(M)
        J = symplectic_form(g)
        R = Me.T @ J @ Me - J
        return all(v == 0 for v in R.flat)
    Mf = M.astype(float)
    J = symplectic_form(g).astype(float)
    return float(np.max(np.abs(Mf.T @ J @ Mf - J))) <= tol


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
    """Build a GF(2) matrix (uint8, entries reduced mod 2)."""
    N = np.array(data)
    if N.ndim != 2:
        raise ValueError("GF(2) matrix must be two-dimensional")
    N = np.asarray(np.round(N.astype(float)) if N.dtype != object else N, dtype=np.int64)
    N = (N % 2).astype(np.uint8)
    if symmetric and not np.array_equal(N, N.T):
        raise ValueError("matrix is not symmetric over GF(2)")
    return N


def gf2_rank(N) -> int:
    """Rank over GF(2): elimination on the rows held as bit masks."""
    rows = [sum(1 << c for c, v in enumerate(row) if v) for row in gf2_matrix(N).tolist()]
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
# Smith normal form and consequences


def smith_normal_form(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form ``U @ M @ V = D`` over the integers, exactly.

    U and V are unimodular; D is diagonal with d_i | d_{i+1} and d_i >= 0.
    """
    M = _as_exact(M)
    n, m = M.shape
    A = [[int(M[i, j]) for j in range(m)] for i in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def add_row(src, dst, q):
        # row dst += q * row src
        for c in range(m):
            A[dst][c] += q * A[src][c]
        for c in range(n):
            U[dst][c] += q * U[src][c]

    def add_col(src, dst, q):
        for r in range(n):
            A[r][dst] += q * A[r][src]
        for r in range(m):
            V[r][dst] += q * V[r][src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(n, m):
        # locate a pivot: any nonzero entry with minimal absolute value
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility: pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if A[i][j] % A[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1

    D = np.zeros((n, m), dtype=object)
    for i in range(min(n, m)):
        D[i, i] = A[i][i]
    Uo = np.array(U, dtype=object)
    Vo = np.array(V, dtype=object)
    return Uo, D, Vo


def integer_solve(G, x) -> np.ndarray | None:
    """One integer solution m of ``G @ m = x``, or None if none exists."""
    G = _as_exact(G)
    xv = [int(v) for v in np.asarray(x, dtype=object).ravel()]
    n, m = G.shape
    if len(xv) != n:
        raise ValueError("dimension mismatch")
    U, D, V = smith_normal_form(G)
    y = [sum(int(U[i, j]) * xv[j] for j in range(n)) for i in range(n)]
    z = [0] * m
    for i in range(min(n, m)):
        d = int(D[i, i])
        if d != 0:
            if y[i] % d != 0:
                return None
            z[i] = y[i] // d
        elif y[i] != 0:
            return None
    for i in range(min(n, m), n):
        if y[i] != 0:
            return None
    sol = np.empty(m, dtype=object)
    for i in range(m):
        sol[i] = sum(int(V[i, j]) * z[j] for j in range(m))
    return sol


def kernel_basis(M) -> np.ndarray:
    """Columns: the Hermite basis of the saturated integer kernel of M.

    Integer column operations bring [M; I] to echelon form one row at a time.
    Once the rows of M are cleared, the remaining columns are (0, x) with x
    running over a basis of the kernel; their pivots are made positive and
    every entry above a pivot is reduced modulo it.  This basis is unique.
    On the 8 x 8 involutions of ``cohomology`` its entries keep within twice
    the digits of M, where the transformation of ``smith_normal_form``
    reaches thousands of digits.
    """
    M = _as_exact(M)
    n, m = M.shape
    vecs = [[int(v) for v in M[:, j]] + [int(i == j) for i in range(m)] for j in range(m)]
    basis: list[list[int]] = []
    for i in range(n + m):
        live = [v for v in vecs if v[i]]
        while len(live) > 1:
            p = min(live, key=lambda v: abs(v[i]))
            for v in live:
                if v is not p:
                    q = v[i] // p[i]
                    v[:] = [a - q * b for a, b in zip(v, p)]
            live = [v for v in live if v[i]]
        if not live:
            continue
        p = live[0]
        vecs = [v for v in vecs if v is not p]
        if i < n:  # M x != 0 for this column
            continue
        if p[i] < 0:
            p[:] = [-a for a in p]
        for b in basis:
            q = b[i] // p[i]
            b[:] = [a - q * c for a, c in zip(b, p)]
        basis.append(p)
    out = np.zeros((m, len(basis)), dtype=object)
    for j, b in enumerate(basis):
        out[:, j] = b[n:]
    return out


def complete_to_unimodular(rows) -> np.ndarray:
    """Extend a primitive k x g integer matrix to a unimodular g x g matrix.

    The given rows become the first k rows of the result.  Raises if the rows
    do not span a primitive sublattice (Smith form not all ones).
    """
    B = _as_exact(rows)
    k, g = B.shape
    if k > g:
        raise ValueError("more rows than columns")
    U, D, V = smith_normal_form(B)
    for i in range(k):
        if int(D[i, i]) != 1:
            raise ValueError("rows are not primitive; no unimodular completion")
    Vinv = unimodular_inverse(V)
    out = np.empty((g, g), dtype=object)
    out[:k, :] = B
    out[k:, :] = Vinv[k:, :]
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
