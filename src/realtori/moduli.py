"""Classification of polarized real tori and real abelian varieties.

Two layers: a discrete one (symmetric GF(2) matrices up to congruence, their
rank/parity invariants, and the integral symplectic involutions built from
the standard forms) and a continuous one (GL(g,Z)-equivalence of SPD matrices
decided by Minkowski reduction plus a certified finite witness search).

One engine decides both equivalence problems.  Polarized real tori are
equivalent when a unimodular A gives A Y1 tA = Y2; two real ppavs with
half-integral real part are equivalent when such an A between their
imaginary parts also gives A (2 Re Omega1) tA = 2 Re Omega2 (mod 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exactlinalg import (
    _as_exact,
    _det_rows,
    _gf2_rank,
    gf2_matrix,
    int_matrix,
    is_symplectic,
    is_unimodular,
    unimodular_inverse,
)
from .siegel import _half_integral, require_siegel
from .spdcone import (
    MAX_REDUCTION_DIM,
    minkowski_reduce,
    quadratic_short_vectors,
    require_spd,
)

__all__ = [
    "ModuliInvariant",
    "ModuliClass",
    "mod2_invariants",
    "mod2_standard_form",
    "standard_form_matrix",
    "valid_invariants",
    "stabilizer_mod2_member",
    "sigma_M_matrix",
    "sigma_involution_image",
    "real_structure_matrix",
    "Verdict",
    "EquivalenceResult",
    "congruence_witnesses",
    "polarized_tori_equivalent",
    "real_ppav_equivalent",
    "classify_spd",
]


@dataclass(frozen=True)
class ModuliInvariant:
    """Component invariant (lambda, i): GF(2) rank and diagonal parity."""

    lam: int
    i: int

    def __post_init__(self):
        if self.i not in (0, 1):
            raise ValueError("parity invariant must be 0 or 1")
        if self.lam < 0:
            raise ValueError("rank invariant must be nonnegative")
        if self.lam % 2 == 1 and self.i != 0:
            raise ValueError("odd rank forces parity 0")
        if self.lam == 0 and self.i != 1:
            raise ValueError("rank 0 forces parity 1")


def mod2_invariants(N) -> ModuliInvariant:
    """Invariants of a symmetric GF(2) matrix: rank and product of (1 - n_kk)."""
    N = gf2_matrix(N, symmetric=True)
    return ModuliInvariant(lam=_gf2_rank(N), i=0 if np.diag(N).any() else 1)


def _anti_identity(lam: int) -> np.ndarray:
    H = np.zeros((lam, lam), dtype=np.uint8)
    for k in range(lam):
        H[k, lam - 1 - k] = 1
    return H


def standard_form_matrix(g: int, inv: ModuliInvariant) -> np.ndarray:
    """The unique standard-form matrix with the given invariants."""
    if inv.lam > g:
        raise ValueError("rank exceeds size")
    S = np.zeros((g, g), dtype=np.uint8)
    if inv.i == 0:
        S[: inv.lam, : inv.lam] = np.eye(inv.lam, dtype=np.uint8)
    else:
        S[: inv.lam, : inv.lam] = _anti_identity(inv.lam)
    return S


def valid_invariants(g: int) -> list[ModuliInvariant]:
    """All invariants realizable in size g; the count is g + 1 + g//2."""
    if g < 1:
        raise ValueError("size must be positive")
    out = [ModuliInvariant(0, 1)]
    out += [ModuliInvariant(lam, 0) for lam in range(1, g + 1)]
    out += [ModuliInvariant(lam, 1) for lam in range(2, g + 1, 2)]
    out.sort(key=lambda t: (t.lam, t.i))
    return out


def _congruence(A: np.ndarray, N: np.ndarray) -> np.ndarray:
    return (A @ N @ A.T) % 2


def mod2_standard_form(N) -> tuple[np.ndarray, np.ndarray]:
    """Standard form over GF(2): returns (S, A) with A N tA = S exactly.

    Elimination strategy: split off a diagonal one when present, otherwise a
    hyperbolic pair; afterwards absorb hyperbolic pairs into the diagonal
    part (possible as soon as one diagonal one exists) and permute pairs into
    the anti-diagonal layout of the standard orthosymmetric form.
    """
    N0 = gf2_matrix(N, symmetric=True)
    g = N0.shape[0]
    A = np.eye(g, dtype=np.uint8)
    N = N0.copy()

    def swap(i, j):
        A[[i, j]] = A[[j, i]]
        N[[i, j]] = N[[j, i]]
        N[:, [i, j]] = N[:, [j, i]]

    def add(src, dst):
        # basis change e_dst += e_src
        A[dst] ^= A[src]
        N[dst] ^= N[src]
        N[:, dst] ^= N[:, src]

    pos = 0
    diag_ones = 0
    pairs = 0
    while pos < g:
        block = N[pos:, pos:]
        if not block.any():
            break
        diag_idx = next((i for i in range(pos, g) if N[i, i]), None)
        if diag_idx is not None:
            swap(pos, diag_idx)
            for r in range(pos + 1, g):
                if N[r, pos]:
                    add(pos, r)
            pos += 1
            diag_ones += 1
            continue
        # alternating block: carve out a hyperbolic pair
        found = None
        for i in range(pos, g):
            for j in range(i + 1, g):
                if N[i, j]:
                    found = (i, j)
                    break
            if found:
                break
        i, j = found
        swap(pos, i)
        swap(pos + 1, j)
        for r in range(pos + 2, g):
            if N[r, pos]:
                add(pos + 1, r)
            if N[r, pos + 1]:
                add(pos, r)
        pos += 2
        pairs += 1

    # Now N = diag(I_a, B, ..., B, 0) with a = diag_ones, pairs hyperbolic
    # blocks.  With a >= 1 each pair merges into three diagonal ones:
    # (e_k+e_p+e_q, e_k+e_q, e_k+e_p) is an orthonormal triple.
    while diag_ones >= 1 and pairs >= 1:
        k = diag_ones - 1
        p, q = diag_ones, diag_ones + 1
        add(p, k)
        add(q, k)
        add(k, p)
        add(k, q)
        sub = N[np.ix_([k, p, q], [k, p, q])]
        if not np.array_equal(sub, np.eye(3, dtype=np.uint8)):
            raise AssertionError("hyperbolic merge failed")
        diag_ones += 2
        pairs -= 1

    inv = ModuliInvariant(lam=diag_ones + 2 * pairs, i=int(diag_ones == 0))
    if inv.i == 1 and pairs > 0:
        # permute adjacent pairs (2m, 2m+1) into the anti-diagonal layout
        lam = 2 * pairs
        perm = np.zeros(g, dtype=int)
        for m in range(pairs):
            perm[m] = 2 * m
            perm[lam - 1 - m] = 2 * m + 1
        for t in range(lam, g):
            perm[t] = t
        P = np.zeros((g, g), dtype=np.uint8)
        for new, old in enumerate(perm):
            P[new, old] = 1
        A = (P @ A) % 2
        N = (P @ N @ P.T) % 2

    S = standard_form_matrix(g, inv)
    if not np.array_equal(N, S):
        raise AssertionError("classification did not reach the standard form")
    if not np.array_equal(_congruence(A, N0), S):
        raise AssertionError("witness does not certify the standard form")
    return S, A


def stabilizer_mod2_member(A, M) -> bool:
    """Exact test A M tA = M (mod 2) for unimodular integral A."""
    A = _as_exact(A)
    if not is_unimodular(A):
        raise ValueError("stabilizer elements must be unimodular")
    M = _as_exact(M)
    return bool(np.all((A @ M @ A.T - M) % 2 == 0))


@dataclass(frozen=True)
class ModuliClass:
    """Reduced representative of a class: invariants, SPD part, standard form."""

    invariant: ModuliInvariant
    reduced_Y: np.ndarray
    standard_M: np.ndarray


def classify_spd(M, Y) -> ModuliClass:
    """Bundle the discrete invariant of M with the Minkowski-reduced Y."""
    inv = mod2_invariants(M)
    R, _ = minkowski_reduce(Y)
    return ModuliClass(invariant=inv, reduced_Y=R,
                       standard_M=standard_form_matrix(np.asarray(M).shape[0], inv))


# ---------------------------------------------------------------------------
# the involution matrices


def sigma_M_matrix(M) -> np.ndarray:
    """Integral symplectic involution (-M, I; -(I + M^2), M) attached to M.

    Requires M^3 = M exactly (true for the standard forms); the result is
    verified to be symplectic with inverse equal to its negative.
    """
    M = _as_exact(M)
    g = M.shape[0]
    if not np.array_equal(M, M.T):
        raise ValueError("M must be symmetric")
    M3 = M @ M @ M
    if not np.array_equal(M3, M):
        raise ValueError("M^3 = M is required")
    I = np.eye(g, dtype=object)
    top = np.concatenate([-M, I], axis=1)
    bot = np.concatenate([-(I + M @ M), M], axis=1)
    S = np.concatenate([top, bot], axis=0)
    if not is_symplectic(S):
        raise AssertionError("involution matrix is not symplectic")
    if not np.all(S @ (-S) == np.eye(2 * g, dtype=int)):
        raise AssertionError("inverse of the involution matrix is not its negative")
    return S


def sigma_involution_image(M, Y) -> np.ndarray:
    """Closed form of the involution on the component of M: for standard M,

        (1/2) M + i D Y^-1 D   with  D = I - (1/2) M^2,

    which agrees with the fractional linear action of the involution matrix.
    """
    M = _as_exact(M)
    if not np.array_equal(M, standard_form_matrix(M.shape[0], mod2_invariants(M))):
        raise ValueError("M must be a standard-form matrix")
    Y = require_spd(Y)
    g = M.shape[0]
    if Y.shape[0] != g:
        raise ValueError(f"M is {g} x {g} but Y is {Y.shape[0]} x {Y.shape[0]}")
    Mf = M.astype(float)
    D = np.eye(g) - 0.5 * (Mf @ Mf)
    # an inverse that overflows (subnormal Y) leaves inf or NaN for require_siegel to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        out = 0.5 * Mf + 1j * (D @ np.linalg.inv(Y) @ D)
        out = 0.5 * (out + out.T)
    return require_siegel(out)


def real_structure_matrix(omega, tol: float = 1e-9) -> np.ndarray:
    """Integral matrix (-I, 0; 2X, I) of the real structure at a point with
    half-integral real part; verified exactly anti-symplectic."""
    om = require_siegel(omega)
    if not _half_integral(om, tol):
        raise ValueError("point must have half-integral real part")
    g = om.shape[0]
    Ms = np.eye(2 * g, dtype=object)
    Ms[g:, :g] = int_matrix(np.round(2.0 * om.real))
    # diag(-I, I) is anti-symplectic, so Ms is when (I, 0; 2X, I) is symplectic
    if not is_symplectic(Ms):
        raise AssertionError("real-structure matrix failed the anti-symplectic identity")
    Ms[:g, :g] = -Ms[:g, :g]
    return Ms


# ---------------------------------------------------------------------------
# equivalence of polarized tori / real ppavs


class Verdict(Enum):
    EQUIVALENT = "EQUIVALENT"
    INEQUIVALENT = "INEQUIVALENT"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: Verdict
    witness: np.ndarray | None = None
    detail: str = ""


def congruence_witnesses(Y1, Y2, tol: float = 1e-9, max_witnesses: int = 64,
                         cap: int = 200_000) -> tuple[list[np.ndarray], bool]:
    """All unimodular integral B with B Y1 tB = Y2 within ``tol``.

    Complete search: row i of B has quadratic value (Y2)_ii, hence lies in a
    finite set, all taken from one enumeration up to max_i (Y2)_ii; cross
    products and the determinant filter the rest.  Every candidate row tried
    counts as one search node.  Returns (witnesses, complete) where
    ``complete`` is False when a cap was hit.
    """
    Y1 = require_spd(Y1)
    Y2 = require_spd(Y2)
    if Y2.shape[0] != Y1.shape[0]:
        return [], True
    found: list[np.ndarray] = []
    try:
        for B in _witness_search(Y1, Y2, tol * max(1.0, float(np.max(np.abs(Y2)))), cap):
            # a witness beyond max_witnesses shows that the list is truncated
            if len(found) == max_witnesses:
                return found, False
            found.append(B)
    except RuntimeError:
        return found, False
    return found, True


def _witness_search(Y1: np.ndarray, Y2: np.ndarray, tau: float, cap: int):
    """Yield, in search order, the witnesses of ``congruence_witnesses`` for
    validated forms of one size within the absolute tolerance ``tau``.

    Raises RuntimeError when the enumeration or the node count exceeds ``cap``.
    """
    g = Y1.shape[0]
    diag2 = np.diag(Y2)
    vecs = quadratic_short_vectors(Y1, float(np.max(diag2)) + tau, cap=cap)
    X = np.array(vecs, dtype=float).reshape(len(vecs), g)
    values = np.einsum("ni,ij,nj->n", X, Y1, X)
    rows = [np.flatnonzero(np.abs(values - diag2[i]) <= tau).tolist() for i in range(g)]
    # row i's candidates times Y1: one product with a chosen row j < i gives
    # the cross term (Y2)_ij of every candidate at once
    products = [X[r] @ Y1 for r in rows]
    chosen: list[int] = []
    nodes = 0

    def backtrack(i: int):
        nonlocal nodes
        if i == g:
            B = [list(vecs[c]) for c in chosen]
            if abs(_det_rows(B)) == 1:
                yield np.array(B, dtype=object)
            return
        cross = products[i] @ X[chosen].T
        fits = np.all(np.abs(cross - Y2[i, :i]) <= tau, axis=1).tolist()
        for cand, fit in zip(rows[i], fits):
            nodes += 1
            if nodes > cap:
                raise RuntimeError("witness search cap exceeded")
            if fit:
                chosen.append(cand)
                yield from backtrack(i + 1)
                chosen.pop()

    yield from backtrack(0)


def _exact_integers(*forms: np.ndarray) -> list[np.ndarray] | None:
    """The forms as exact integer matrices when every entry is an integer
    below 2^53 in magnitude (so the float input is that integer), else None."""
    rows = [Y.tolist() for Y in forms]
    if not all(abs(v) < 2.0 ** 53 and v.is_integer() for Z in rows for row in Z for v in row):
        return None
    return [int_matrix(Z) for Z in rows]


def _transports(A: np.ndarray, Y1: np.ndarray, Y2: np.ndarray,
                exact: list[np.ndarray] | None, limit: float) -> bool:
    """A Y1 tA = Y2: in integers when ``exact`` holds the integer forms,
    else within ``limit`` in every entry."""
    if exact is not None:
        Z1, Z2 = exact
        return bool(np.all(A @ Z1 @ A.T == Z2))
    Af = A.astype(float)
    return float(np.max(np.abs(Af @ Y1 @ Af.T - Y2))) <= limit


def _equivalent(Y1: np.ndarray, Y2: np.ndarray, tol: float, cap: int,
                keep=None) -> EquivalenceResult:
    """Y2 = A Y1 tA for unimodular A with ``keep(A)``, for validated forms of
    one size: the witness search between the Minkowski-reduced forms is
    complete, so when no candidate is kept the pair is inequivalent."""
    g = Y1.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"equivalence supported for g <= {MAX_REDUCTION_DIM}")
    exact = _exact_integers(Y1, Y2)
    if exact is not None and _det_rows(exact[0].tolist()) != _det_rows(exact[1].tolist()):
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="determinant invariant differs")
    R1, A1 = minkowski_reduce(Y1)
    R2, A2 = minkowski_reduce(Y2)
    scale = max(1.0, float(np.max(np.abs(Y2))))
    A2inv = unimodular_inverse(A2)
    candidates = _witness_search(R1, R2, max(tol, 1e-9) * max(1.0, float(np.max(np.abs(R2)))),
                                 cap)
    if float(np.max(np.abs(R1 - R2))) <= 1e-8 * scale:
        candidates = itertools.chain([np.eye(g, dtype=object)], candidates)
    try:
        for B in candidates:
            A = A2inv @ B @ A1
            if _transports(A, Y1, Y2, exact, max(tol, 1e-9) * scale) and (keep is None or keep(A)):
                return EquivalenceResult(Verdict.EQUIVALENT, witness=A)
    except RuntimeError:
        return EquivalenceResult(Verdict.UNDECIDED, detail="candidate cap exceeded")
    return EquivalenceResult(Verdict.INEQUIVALENT,
                             detail="no witness in the complete candidate set")


def polarized_tori_equivalent(Y1, Y2, tol: float = 1e-9,
                              cap: int = 200_000) -> EquivalenceResult:
    """GL(g,Z)-equivalence of SPD matrices: Y2 = A Y1 tA for unimodular A.

    Both inputs are Minkowski reduced; matching reduced forms give an
    immediate composed witness, otherwise a certified finite search between
    the reduced forms decides the boundary-ambiguous cases.  A witness is
    verified exactly, A Y1 tA = Y2 in integers, when every input entry is an
    integer below 2^53, and otherwise within max(tol, 1e-9) max(1, max|Y2|)
    in every entry.
    """
    Y1 = require_spd(Y1)
    Y2 = require_spd(Y2)
    if Y2.shape[0] != Y1.shape[0]:
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="dimension mismatch")
    return _equivalent(Y1, Y2, tol, cap)


def real_ppav_equivalent(omega1, omega2, bound: int = 200_000,
                         tol: float = 1e-9) -> EquivalenceResult:
    """Equivalence of two points with half-integral real part.

    A witness A transports the imaginary parts as in
    ``polarized_tori_equivalent`` and also matches twice the real parts mod
    2: A (2 Re omega1) tA = 2 Re omega2 (mod 2).  ``bound`` caps the search.
    """
    om1 = require_siegel(omega1)
    om2 = require_siegel(omega2)
    if not (_half_integral(om1, tol) and _half_integral(om2, tol)):
        raise ValueError("both points must have half-integral real part")
    if om2.shape[0] != om1.shape[0]:
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="dimension mismatch")
    N1 = int_matrix(np.round(2.0 * om1.real))
    N2 = int_matrix(np.round(2.0 * om2.real))
    if mod2_invariants(N1) != mod2_invariants(N2):
        return EquivalenceResult(Verdict.INEQUIVALENT,
                                 detail="component invariants differ")
    return _equivalent(om1.imag, om2.imag, tol, bound,
                       keep=lambda A: bool(np.all((A @ N1 @ A.T - N2) % 2 == 0)))
