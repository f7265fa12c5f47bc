"""Classification of polarized real tori and real abelian varieties.

Two layers: a discrete one (symmetric GF(2) matrices up to congruence, their
rank/parity invariants, and the integral symplectic involutions built from
the standard forms) and a continuous one (GL(g,Z)-equivalence of SPD matrices
decided by Minkowski reduction plus a certified finite witness search).

One engine decides both equivalence problems.  Polarized real tori are
equivalent when a unimodular A gives A Y1 tA = Y2; two real ppavs with
half-integral real part are equivalent when such an A between their
imaginary parts also gives A (2 Re Omega1) tA = 2 Re Omega2 (mod 2).

On float input an INEQUIVALENT answer rests on one rounding-aware bound
between the reduced forms, the tolerance of the witness search
(``_equivalent``), which also lets the successive minima decide before the
search (``polarized_tori_equivalent``).  A reduced form is the exact
A Y tA with each entry rounded once (``spdcone.minkowski_reduce``), so the
bound carries the rounding of its entries only, whatever the size of A.

Each form of an equivalence is proved positive definite once, by the public
``minkowski_reduce`` that the search needs anyway, as the benchmark's tracer
times public names only (ROADMAP item 7 may move it to ``spdcone._reduce``).
"""

from __future__ import annotations

import itertools
import math
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
from .siegel import _twice_real, require_siegel
from .spdcone import (
    MAX_REDUCTION_DIM,
    _ROUNDING,
    _compose,
    _symmetric,
    _symmetrized,
    minkowski_reduce,
    quadratic_short_vectors,
    require_spd,
)

# default cap on the candidates of an equivalence or witness search
SEARCH_CAP = 200_000

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
    return _invariant(gf2_matrix(N, symmetric=True).tolist())


def _invariant(rows: list) -> ModuliInvariant:
    # mod2_invariants of a symmetric integer matrix, given as rows of Python ints
    return ModuliInvariant(lam=_gf2_rank(rows), i=1 - any(r[k] & 1 for k, r in enumerate(rows)))


def standard_form_matrix(g: int, inv: ModuliInvariant) -> np.ndarray:
    """The unique standard-form matrix with the given invariants."""
    if inv.lam > g:
        raise ValueError("rank exceeds size")
    S = np.zeros((g, g), dtype=np.uint8)
    if inv.i == 0:
        S[: inv.lam, : inv.lam] = np.eye(inv.lam, dtype=np.uint8)
    else:
        S[: inv.lam, : inv.lam] = np.eye(inv.lam, dtype=np.uint8)[::-1]
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

    pos = diag_ones = pairs = 0
    while pos < g:
        if not N[pos:, pos:].any():
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
        i, j = next((i, j) for i in range(pos, g) for j in range(i + 1, g) if N[i, j])
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
        perm = list(range(g))
        for m in range(pairs):
            perm[m], perm[2 * pairs - 1 - m] = 2 * m, 2 * m + 1
        A, N = A[perm], N[np.ix_(perm, perm)]

    S = standard_form_matrix(g, inv)
    if not np.array_equal(N, S):
        raise AssertionError("classification did not reach the standard form")
    if not np.array_equal((A @ N0 @ A.T) % 2, S):
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
    N = _twice_real(om, tol)
    if N is None:
        raise ValueError("point must have half-integral real part")
    g = om.shape[0]
    Ms = np.eye(2 * g, dtype=object)
    Ms[g:, :g] = int_matrix(N)
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
                         cap: int = SEARCH_CAP) -> tuple[list[np.ndarray], bool]:
    """All unimodular integral B with B Y1 tB = Y2 within ``tol`` max|Y2|.

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
        for B in _witness_search(Y1, Y2, tol * float(np.max(np.abs(Y2))), cap):
            # a witness beyond max_witnesses shows that the list is truncated
            if len(found) == max_witnesses:
                return found, False
            found.append(B)
    except RuntimeError:
        return found, False
    return found, True


def _witness_search(Y1: np.ndarray, Y2: np.ndarray, tau, cap: int):
    """Yield, in search order, the witnesses of ``congruence_witnesses`` for
    validated forms of one size within the absolute tolerance ``tau``, one
    number or one per entry of Y2.

    Raises RuntimeError when the enumeration or the node count exceeds ``cap``.
    """
    g = Y1.shape[0]
    tau = np.broadcast_to(tau, Y2.shape)
    diag2 = np.diag(Y2)
    vecs = quadratic_short_vectors(Y1, float(np.max(diag2 + tau.diagonal())), cap=cap)
    X = np.array(vecs, dtype=float).reshape(len(vecs), g)
    values = np.einsum("ni,ij,nj->n", X, Y1, X)
    rows = [np.flatnonzero(np.abs(values - diag2[i]) <= tau[i, i]).tolist() for i in range(g)]
    # row i's candidates times Y1: one product with a chosen row j < i gives
    # the cross term (Y2)_ij of every candidate at once
    products = [X[r] @ Y1 for r in rows]
    last = np.array(rows[-1], dtype=np.intp)
    chosen: list[int] = []
    nodes = 0

    def backtrack(i: int):
        nonlocal nodes
        cross = products[i] @ X[chosen].T
        fits = np.all(np.abs(cross - Y2[i, :i]) <= tau[i, :i], axis=1)
        if i == g - 1:
            # the last row's candidates at once: candidate k is node start + k + 1,
            # and only nodes within the cap are tried
            start, nodes = nodes, nodes + len(rows[i])
            tried = slice(cap - start)
            B = [list(vecs[c]) for c in chosen]
            for k in _unimodular_completions(B, last[tried][fits[tried]], vecs, X):
                yield np.array(B + [list(vecs[k])], dtype=object)
            if nodes > cap:
                raise RuntimeError("witness search cap exceeded")
            return
        for cand, fit in zip(rows[i], fits.tolist()):
            nodes += 1
            if nodes > cap:
                raise RuntimeError("witness search cap exceeded")
            if fit:
                chosen.append(cand)
                yield from backtrack(i + 1)
                chosen.pop()

    yield from backtrack(0)


def _unimodular_completions(B: list, cands: np.ndarray, vecs: list, X: np.ndarray) -> list[int]:
    """The k in ``cands``, in order, whose row vecs[k] completes the rows B
    (Python ints) to a unimodular matrix: the determinant is x.C, C the
    cofactors of the last row, in floats where every term and partial sum is
    an integer below 2^53."""
    g = len(B) + 1
    if not len(cands):
        return []
    C = [(-1) ** (g - 1 + j) * _det_rows([r[:j] + r[j + 1:] for r in B]) for j in range(g)]
    Xc = X[cands]
    if g * max(map(abs, C)) * float(np.abs(Xc).max()) < 2.0 ** 53:
        return cands[np.abs(Xc @ np.array(C, dtype=float)) == 1].tolist()
    return [k for k in cands.tolist() if abs(sum(c * x for c, x in zip(C, vecs[k]))) == 1]


def _exact_integers(*forms: np.ndarray) -> list[np.ndarray] | None:
    """The forms as exact integer matrices when every entry is an integer
    below 2^53 in magnitude (so the float input is that integer), else None."""
    rows = [Y.tolist() for Y in forms]
    if not all(abs(v) < 2.0 ** 53 and v.is_integer() for Z in rows for row in Z for v in row):
        return None
    return [int_matrix(Z) for Z in rows]


# one sign vector per pair +-s, with s_0 = 1
_SIGNS = {g: np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=g - 1)])
          for g in range(1, MAX_REDUCTION_DIM + 1)}


def _search_tolerance(R1: np.ndarray, R2: np.ndarray, A2: np.ndarray,
                      t: float, t_Y: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The search tolerance tau, one per entry, between the reduced forms R1
    and R2 = A2 Y2 tA2, the bound q_j on q_R1 of row j of a witness and the
    rounding bound rho of R1, at the transport tolerance t_Y = t max|Y2|
    (see ``_equivalent``)."""
    g = R1.shape[0]
    u = _ROUNDING / 2
    row = float(abs(A2.astype(float)).sum(axis=1).max())
    d = t_Y * row * row + u * abs(R2)
    # square roots of quotients by one entry: the same in every unit, where
    # sqrt(2^k) is not exact, and sqrt(q_i q_j) cannot overflow
    c = float(R1[0, 0])
    S = _SIGNS[g] * np.sqrt(R1.diagonal() / c)
    kappa = c * float(np.einsum("ij,ji->i", S, np.linalg.solve(R1, S.T)).max())
    n = (g * g + 3) * u
    rho = n / (1 - n) * kappa
    if not rho < 1:
        # no bound on a witness's rows: every candidate passes
        return np.full((g, g), math.inf), np.full(g, math.inf), rho
    q = (R2.diagonal() + d.diagonal()) / (1 - rho)
    r = np.sqrt(q / q[0])
    tau = np.maximum(t * float(np.max(np.abs(R2))), d + rho * q[0] * np.outer(r, r))
    return tau, q, rho


def _proved(Y) -> tuple[tuple | None, np.ndarray]:
    # the reduction (R, A) by minkowski_reduce, the one proof that Y is definite, and Y
    # symmetrized; require_spd's proof and None unless Y is square of side <= 4
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or not Y.shape[0] == Y.shape[1] <= MAX_REDUCTION_DIM:
        return None, require_spd(Y)
    return minkowski_reduce(Y), _symmetrized(Y)


def _equivalent(Y1: np.ndarray, reduced1: tuple | None, Y2: np.ndarray,
                reduced2: tuple | None, tol: float, cap: int, keep=None) -> EquivalenceResult:
    """Y2 = A Y1 tA for unimodular A with ``keep(A)``, for validated forms of
    one size and their reductions (None above g = 4): the witness search
    between R1 = A1 Y1 tA1 and R2 = A2 Y2 tA2 is complete, so when no
    candidate is kept the pair is inequivalent.

    The search looks for B = A2 A A1^-1 with B R1 tB = R2 within tau_ij in
    entry ij.  With t = max(tol, 1e-9) and t_Y = t max|Y2| the
    tolerance of the transport check, any A that the check accepts,
    A Y1 tA = Y2 + D with |D| <= t_Y, gives

        B R1 tB - R2 = A2 D tA2 + B E1 tB - E2,

    Ei the rounding of Ri.  ``minkowski_reduce`` returns Ri as the exact
    Ai Yi tAi with each entry correctly rounded, so |Ei| <= u |Ri| (u the
    unit roundoff, away from underflow), and

        d = t_Y |A2|_inf^2 + u |R2|

    bounds A2 D tA2 - E2 in every entry.  B E1 tB grows with the rows of B,
    which may be long: |R1_kl| <= sqrt(R1_kk R1_ll) gives |E1| <= u w tw
    with w = sqrt(diag R1), and by Cauchy-Schwarz in the inner product of
    R1, (|x|.w)^2 <= kappa q_R1(x) with kappa = max over sign vectors s of
    (s w) R1^-1 t(s w), small for a reduced form.  So
    |x E1 ty| <= rho sqrt(q_R1(x) q_R1(y)), where rho = gamma_{g^2+3} kappa
    (gamma_n = n u / (1 - n u)) also covers the search's own evaluation of
    x R1 ty (g^2 triple products).  A witness's row b_j then has
    q_R1(b_j) <= R2_jj + d_jj + rho q_R1(b_j), that is, when rho < 1,

        q_R1(b_j) <= q_j = (R2_jj + d_jj) / (1 - rho),

    and every entry of B R1 tB, as the search computes it, is within

        tau_ij = max(t max|R2|, d_ij + rho sqrt(q_i q_j))

    of R2_ij.  These bounds are to first order in u, as kappa is computed
    in floats.  When rho >= 1, tau is infinite and the search ends at its
    cap.

    The q_j also decide the successive minima before the search.  The exact
    form R1e = A1 Y1 tA1 is Minkowski-reduced, so for g <= 4 its diagonal
    holds its successive minima (Nguyen & Stehle, ACM TALG 2009), and
    R1e_kk >= (1 - rho) R1_kk, as |E1_kk| <= u R1_kk <= rho R1_kk.  A witness row b_j has
    q_R1e(b_j) <= (1 + rho) q_R1(b_j) <= (1 + rho) q_j.  So when
    (1 - rho) R1_kk > (1 + rho) q_j for every j <= k, the rows b_0..b_k
    would be k + 1 independent vectors below R1e_kk, and the successive
    minima differ.
    """
    g = Y1.shape[0]
    if g > MAX_REDUCTION_DIM:
        raise ValueError(f"equivalence supported for g <= {MAX_REDUCTION_DIM}")
    exact = _exact_integers(Y1, Y2)
    if exact is not None and _det_rows(exact[0].tolist()) != _det_rows(exact[1].tolist()):
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="determinant invariant differs")
    (R1, A1), (R2, A2) = reduced1, reduced2
    scale = float(np.max(np.abs(Y2)))
    t = max(tol, 1e-9)

    def accepts(A) -> bool:
        if exact is not None:
            fits = bool(np.all(A @ exact[0] @ A.T == exact[1]))
        else:
            Af = A.astype(float)
            fits = float(np.max(np.abs(Af @ Y1 @ Af.T - Y2))) <= t * scale
        return fits and (keep is None or keep(A))

    identity = float(np.max(np.abs(R1 - R2))) <= 1e-8 * scale
    if identity:
        # matching reduced forms: the composed witness before the search
        A2inv = unimodular_inverse(A2)
        A = A2inv @ A1
        if accepts(A):
            return EquivalenceResult(Verdict.EQUIVALENT, witness=A)
    tau, q, rho = _search_tolerance(R1, R2, A2, t, t * scale)
    if not identity:
        d1, q = R1.diagonal().tolist(), q.tolist()
        if any((1 - rho) * d1[k] > (1 + rho) * max(q[: k + 1]) for k in range(g)):
            return EquivalenceResult(Verdict.INEQUIVALENT, detail="successive minima differ")
        A2inv = unimodular_inverse(A2)
    try:
        for B in _witness_search(R1, R2, tau, cap):
            A = A2inv @ B @ A1
            if accepts(A):
                return EquivalenceResult(Verdict.EQUIVALENT, witness=A)
    except RuntimeError:
        return EquivalenceResult(Verdict.UNDECIDED, detail="candidate cap exceeded")
    return EquivalenceResult(Verdict.INEQUIVALENT,
                             detail="no witness in the complete candidate set")


def polarized_tori_equivalent(Y1, Y2, tol: float = 1e-9,
                              cap: int = SEARCH_CAP) -> EquivalenceResult:
    """GL(g,Z)-equivalence of SPD matrices: Y2 = A Y1 tA for unimodular A.

    Both inputs are Minkowski reduced; matching reduced forms (within
    1e-8 max|Y2|) give an immediate composed witness, otherwise a
    certified finite search between the reduced forms decides the
    boundary-ambiguous cases.  A witness is verified exactly, A Y1 tA = Y2 in
    integers, when every input entry is an integer below 2^53, and otherwise
    within max(tol, 1e-9) max|Y2| in every entry: ``tol`` is relative.

    INEQUIVALENT comes from the determinants of integer input, from the
    successive minima, or from a search that ends without a witness.  The
    minima decide when the reduced forms do not match and
    (1 - rho) R1_kk > (1 + rho) q_j for every j <= k, q_j the bound of
    ``_equivalent`` on q_R1 of row j of any witness B between the reduced
    forms, whatever its length, and rho the rounding bound of R1: the rows
    b_0..b_k of B would be k + 1 independent vectors below the k-th
    successive minimum (see ``_equivalent``).  The reverse test, R2_kk above R1_jj,
    is not made: it would bound the rows of B^-1, which carry the mismatch
    B R1 tB - R2 times the square of B^-1, which may be large.  So
    np.eye(4) against 1000.5 * np.eye(4) is UNDECIDED, and the reversed pair
    INEQUIVALENT.  Each form is checked once, Y1 first, by the reduction
    (see the module docstring).
    """
    reduced1, Y1 = _proved(Y1)
    reduced2, Y2 = _proved(Y2)
    if Y2.shape[0] != Y1.shape[0]:
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="dimension mismatch")
    return _equivalent(Y1, reduced1, Y2, reduced2, tol, cap)


def real_ppav_equivalent(omega1, omega2, tol: float = 1e-9,
                         cap: int = SEARCH_CAP) -> EquivalenceResult:
    """Equivalence of two points with half-integral real part.

    A witness A transports the imaginary parts as in
    ``polarized_tori_equivalent`` and also matches twice the real parts mod
    2: A (2 Re omega1) tA = 2 Re omega2 (mod 2), with half-integrality tested
    within 1e-9, not ``tol``.  ``cap`` caps the search.  Each point is
    checked once, omega1 first (see the module docstring).
    """
    om1 = _symmetric(omega1, "half-space point", complex)
    reduced1, Y1 = _proved(om1.imag)
    om2 = _symmetric(omega2, "half-space point", complex)
    reduced2, Y2 = _proved(om2.imag)
    N1, N2 = _twice_real(om1), _twice_real(om2)
    if N1 is None or N2 is None:
        raise ValueError("both points must have half-integral real part")
    if om2.shape[0] != om1.shape[0]:
        return EquivalenceResult(Verdict.INEQUIVALENT, detail="dimension mismatch")
    N1, N2 = int_matrix(N1).tolist(), int_matrix(N2).tolist()
    if _invariant(N1) != _invariant(N2):
        return EquivalenceResult(Verdict.INEQUIVALENT,
                                 detail="component invariants differ")

    def keep(A) -> bool:
        # A N1 tA = N2 (mod 2), in Python ints
        B = A.tolist()
        image = _compose(_compose(B, N1), list(zip(*B)))
        return not any((a - b) & 1 for r, s in zip(image, N2) for a, b in zip(r, s))

    return _equivalent(Y1, reduced1, Y2, reduced2, tol, cap, keep=keep)
