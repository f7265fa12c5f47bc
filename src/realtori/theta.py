"""Semi-characters, automorphic factors, and theta series on real tori.

A theta datum is a lattice Pi Z^g, an SPD Gram form B, and a unit character
given by its values on the lattice basis.  The argument is first translated
into the fundamental cell and the removed translate re-applied exactly
through the transformation law, so conditioning does not depend on v.  A
series is a sum over the lattice, so its value depends only on the
GL(g, Z)-class of the Gram form: for 1 < g <= 4 the form is first
Minkowski-reduced, and the sum then runs over a coordinate box in numpy
chunks, with a certified Gaussian tail bound on everything outside the box.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlinalg import int_matrix
from .spdcone import MAX_REDUCTION_DIM, _invertible, minkowski_reduce, require_spd

__all__ = [
    "ThetaSpec",
    "SemiCharacter",
    "canonical_semicharacter",
    "canonical_semicharacter_data",
    "semicharacter_check",
    "automorphic_factor_eval",
    "factor_i_b_rho",
    "theta_eval",
    "theta_transform_residual",
    "periodic_function_eval",
    "CanonicalBundle",
    "canonical_line_bundle_data",
]

_RADIUS_CAP = 60
# points per numpy pass of the box sum: bounds its working memory
_CHUNK = 1 << 16


@dataclass(frozen=True)
class ThetaSpec:
    """Lattice Pi Z^g with SPD Gram form B and unit character values rho."""

    Pi: np.ndarray
    B: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        Pi = _invertible(self.Pi, "lattice basis")
        B = require_spd(self.B)
        if B.shape[0] != Pi.shape[0]:
            raise ValueError("Gram form and lattice dimension mismatch")
        rho = np.asarray(self.rho, dtype=complex).ravel()
        if rho.shape[0] != Pi.shape[0]:
            raise ValueError("character needs one value per basis vector")
        if abs(abs(rho) - 1.0).max() > 1e-9:
            raise ValueError("character values must have modulus one")
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "rho", rho)

    @property
    def g(self) -> int:
        return self.Pi.shape[0]

    def gram(self) -> np.ndarray:
        """Gram matrix of B on the lattice basis."""
        return self.Pi.T @ self.B @ self.Pi

    def character_angles(self) -> np.ndarray:
        return np.angle(self.rho)


def _rho_eval(spec: ThetaSpec, n: np.ndarray) -> complex:
    """Character value on the lattice vector with integer coordinates n."""
    phase = float(np.dot(spec.character_angles(), n))
    return cmath.exp(1j * phase)


def _bilinear(B: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ B @ y)


def factor_i_b_rho(spec: ThetaSpec, lam_int, v) -> complex:
    """Automorphic factor rho(lam) exp(pi B(lam,lam) + 2 pi B(v,lam))."""
    n = np.asarray(lam_int, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    lam = spec.Pi @ n
    expo = math.pi * _bilinear(spec.B, lam, lam) + 2.0 * math.pi * _bilinear(spec.B, v, lam)
    return _rho_eval(spec, n) * math.exp(expo)


# ---------------------------------------------------------------------------
# truncated lattice sums with certified tails


def _tail_bound(Q: np.ndarray, center: np.ndarray, radius: int) -> float:
    """Upper bound on the sum of exp(-pi (n-c)^T Q (n-c)) over ||n||_inf > radius."""
    g = Q.shape[0]
    mu = float(np.linalg.eigvalsh(Q).min())
    a = float(abs(center).max())
    total = 0.0
    s = radius + 1
    while True:
        count = (2 * s + 1) ** g - (2 * s - 1) ** g
        dist = max(s - a, 0.0)
        term = count * math.exp(-math.pi * mu * dist * dist)
        total += term
        if term < 1e-300 or (total > 0 and term < 1e-18 * total):
            break
        s += 1
        if s > radius + 10_000:
            break
    return total


def _box_sum(Q: np.ndarray, b: np.ndarray, c: np.ndarray, radius: int) -> complex:
    """Sum of exp(-pi (t(k) Q k + b.k) + i c.k) over the box [-radius, radius]^g.

    The points k and -k are summed as a pair, so (b, c) and (-b, -c) give
    bitwise equal values.  The pairs are walked in flat-index chunks of at
    most ``_CHUNK`` points, and the chunk sums are added in index order; only
    elementwise numpy operations touch the points, so the value does not
    depend on how many threads a BLAS library uses.
    """
    g = Q.shape[0]
    side = 2 * radius + 1
    # the flat indices below the center; index side^g - 1 - j holds -k
    half = side**g // 2
    total = 1.0 + 0.0j
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, half, _CHUNK // 2):
            flat = np.arange(start, min(start + _CHUNK // 2, half))
            k = [x - radius for x in np.unravel_index(flat, (side,) * g)]
            quad = np.zeros(flat.shape[0])
            lin = np.zeros(flat.shape[0])
            phase = np.zeros(flat.shape[0])
            for i in range(g):
                row = Q[i, i] * k[i]
                for j in range(i + 1, g):
                    row += 2.0 * Q[i, j] * k[j]
                quad += row * k[i]
                lin += b[i] * k[i]
                phase += c[i] * k[i]
            pairs = np.exp(-math.pi * (quad + lin) + 1j * phase) \
                + np.exp(-math.pi * (quad - lin) - 1j * phase)
            total += complex(pairs.sum())
    if not cmath.isfinite(total):
        raise OverflowError("theta sum overflows")
    return total


def _sum_with_tail(spec: ThetaSpec, v: np.ndarray, eps: float, cap: int,
                   oscillatory: bool) -> complex:
    """Core truncated sum; ``oscillatory`` switches the linear term to 2 pi i B(v, lam).

    The sum runs over n = tA k, with A the Minkowski-reduction witness of the
    Gram form Q (A = I at g = 1 and above ``MAX_REDUCTION_DIM``): the form
    becomes A Q tA, the linear coefficients A w and the character angles
    A angles, and the offset w Q^-1 w is unchanged.
    """
    g = spec.g
    Q = spec.gram()
    w = spec.Pi.T @ spec.B @ v
    angles = spec.character_angles()
    if 1 < g <= MAX_REDUCTION_DIM:
        Q, A = minkowski_reduce(Q)
        A = A.astype(float)
        w = A @ w
        angles = A @ angles
    if oscillatory:
        # the linear term is a pure phase; magnitudes are centered at zero
        center = np.zeros(g)
        offset = 0.0
    else:
        center = -np.linalg.solve(Q, w)
        offset = -float(w @ center)
    radius = max(2, int(math.ceil(float(abs(center).max()))) + 2)
    while True:
        bound = math.exp(math.pi * offset) * _tail_bound(Q, center, radius)
        if bound < eps:
            break
        radius += 2
        if radius > cap:
            raise ValueError(f"tolerance {eps} unreachable within radius cap {cap}")
    if oscillatory:
        return _box_sum(Q, np.zeros(g), angles + 2.0 * math.pi * w, radius)
    return _box_sum(Q, 2.0 * w, -angles, radius)


def theta_eval(spec: ThetaSpec, v, eps: float = 1e-12, radius_cap: int = _RADIUS_CAP) -> complex:
    """Theta value sum_{lam} rho(lam)^-1 exp(-pi B(lam,lam) - 2 pi B(v,lam)).

    The argument is reduced into the fundamental cell; the removed lattice
    translate is re-applied exactly through the transformation law.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != spec.g:
        raise ValueError("argument dimension mismatch")
    m = np.round(np.linalg.solve(spec.Pi, v))
    v_red = v - spec.Pi @ m
    base = _sum_with_tail(spec, v_red, eps, radius_cap, oscillatory=False)
    if not m.any():
        return base
    factor = factor_i_b_rho(spec, m, v_red)
    return factor * base


def theta_transform_residual(spec: ThetaSpec, lam_int, v,
                             eps: float = 1e-13) -> float:
    """Residual |theta(v + lam) - I(lam, v) theta(v)| with both sides summed directly."""
    v = np.asarray(v, dtype=float).ravel()
    n = np.asarray(lam_int)
    lam = spec.Pi @ n.astype(float)
    lhs = _sum_with_tail(spec, v + lam, eps, _RADIUS_CAP, oscillatory=False)
    rhs = factor_i_b_rho(spec, n, v) * _sum_with_tail(spec, v, eps, _RADIUS_CAP,
                                                      oscillatory=False)
    return abs(lhs - rhs)


def periodic_function_eval(spec: ThetaSpec, v, eps: float = 1e-12,
                           integrality_tol: float = 1e-9) -> complex:
    """Lattice-periodic sum rho(lam) exp(-pi B(lam,lam) + 2 pi i B(v,lam)).

    Requires the Gram form to be integral on the lattice.
    """
    Q = spec.gram()
    if float(np.max(np.abs(Q - np.round(Q)))) > integrality_tol:
        raise ValueError("Gram form is not integral on the lattice")
    v = np.asarray(v, dtype=float).ravel()
    return _sum_with_tail(spec, v, eps, _RADIUS_CAP, oscillatory=True)


# ---------------------------------------------------------------------------
# semi-characters on the doubled lattice


@dataclass(frozen=True)
class SemiCharacter:
    """Unit values on a rank-2g lattice basis twisted by an integral alternating form.

    The value on a lattice vector sum n_j l_j is the product of the basis
    values times the sign exp(pi i sum_{j<k} n_j n_k E_jk), which satisfies
    the semi-character rule by construction.
    """

    basis: np.ndarray          # g x 2g complex columns spanning the lattice
    values: np.ndarray         # 2g unit complex numbers
    E: np.ndarray              # 2g x 2g integral alternating Gram matrix

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        values = np.asarray(self.values, dtype=complex).ravel()
        E = int_matrix(self.E)
        if basis.ndim != 2 or basis.shape[1] != 2 * basis.shape[0]:
            raise ValueError("basis must be g x 2g")
        if values.shape[0] != basis.shape[1]:
            raise ValueError("one value per basis vector is required")
        if np.max(np.abs(np.abs(values) - 1.0)) > 1e-9:
            raise ValueError("semi-character values must have modulus one")
        if not np.array_equal(E, -E.T):
            raise ValueError("Gram matrix must be alternating")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "E", E)

    def vector(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float).ravel()
        return self.basis @ n

    def pairing(self, n, m) -> int:
        n = np.asarray(n).ravel()
        m = np.asarray(m).ravel()
        return int(sum(int(n[j]) * int(self.E[j, k]) * int(m[k])
                       for j in range(len(n)) for k in range(len(m))))

    def eval(self, n) -> complex:
        n = [int(t) for t in np.asarray(n).ravel()]
        two_g = len(n)
        phase = float(np.dot(np.angle(self.values), n))
        parity = 0
        for j in range(two_g):
            for k in range(j + 1, two_g):
                parity += n[j] * n[k] * int(self.E[j, k])
        sign = -1.0 if parity % 2 else 1.0
        return sign * cmath.exp(1j * phase)


def canonical_semicharacter_data(Y) -> SemiCharacter:
    """The canonical semi-character of the lattice Z^g + i Y Z^g.

    All basis values are one; the Gram matrix of the polarization on the
    basis (e_j, i Y e_j) is the standard alternating form with a sign.
    """
    Y = require_spd(Y)
    g = Y.shape[0]
    basis = np.zeros((g, 2 * g), dtype=complex)
    basis[:, :g] = np.eye(g)
    basis[:, g:] = 1j * Y
    E = np.zeros((2 * g, 2 * g), dtype=int)
    E[:g, g:] = -np.eye(g, dtype=int)
    E[g:, :g] = np.eye(g, dtype=int)
    return SemiCharacter(basis=basis, values=np.ones(2 * g, dtype=complex), E=E)


def canonical_semicharacter(Y, kappa, lam_int) -> complex:
    """Value exp(-pi i t(kappa) lam_int) on the vector kappa + i Y lam_int."""
    require_spd(Y)
    kappa = [int(t) for t in np.asarray(kappa).ravel()]
    lam_int = [int(t) for t in np.asarray(lam_int).ravel()]
    dot = sum(a * b for a, b in zip(kappa, lam_int))
    return complex(-1.0 if dot % 2 else 1.0)


def semicharacter_check(alpha: SemiCharacter, trials: int = 50,
                        rng: np.random.Generator | None = None) -> float:
    """Max residual of the extension rule over sampled lattice coordinate pairs."""
    if rng is None:
        rng = np.random.default_rng(0)
    two_g = alpha.values.shape[0]
    worst = 0.0
    for _ in range(trials):
        n = rng.integers(-3, 4, size=two_g)
        m = rng.integers(-3, 4, size=two_g)
        lhs = alpha.eval(n + m)
        twist = cmath.exp(1j * math.pi * alpha.pairing(n, m))
        rhs = alpha.eval(n) * alpha.eval(m) * twist
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# the canonical line-bundle package of an SPD matrix


@dataclass(frozen=True)
class CanonicalBundle:
    """Factor and section data of the canonical bundle attached to Y.

    Holds the positive Hermitian form t(x) Y^-1 conj(y), its canonical
    semi-character on Z^g + i Y Z^g, the restricted real form B = Y^-1 on
    the lattice Y Z^g, and the theta datum evaluating the global section.
    """

    Y: np.ndarray
    spec: ThetaSpec

    @cached_property
    def alpha(self) -> SemiCharacter:
        """The canonical semi-character, built on first read: a theta value
        needs only ``spec``."""
        return canonical_semicharacter_data(self.Y)

    def hermitian(self, x, y) -> complex:
        x = np.asarray(x, dtype=complex).ravel()
        y = np.asarray(y, dtype=complex).ravel()
        return complex(x @ np.linalg.solve(self.Y, np.conj(y)))

    def section(self, v, eps: float = 1e-12) -> complex:
        """Global section theta value at a real argument."""
        return theta_eval(self.spec, v, eps=eps)


def canonical_line_bundle_data(Y) -> CanonicalBundle:
    Y = require_spd(Y)
    g = Y.shape[0]
    # character on the real lattice Y Z^g: rho_j = alpha(2 i lam_j) = 1, since
    # every basis value of alpha is one and 2 e_{g+j} has no parity term
    rho = np.ones(g, dtype=complex)
    spec = ThetaSpec(Pi=Y, B=np.linalg.inv(Y), rho=rho)
    return CanonicalBundle(Y=Y, spec=spec)


def automorphic_factor_eval(kind: str, data, lam, arg) -> complex:
    """Evaluate one of the four automorphic-factor families.

    kind 'J_H_alpha': data is a CanonicalBundle, lam integer coordinates of a
    lattice vector of Z^g + i Y Z^g (length 2g), arg a complex vector.
    kind 'I_B_rho': data is a ThetaSpec, lam integer lattice coordinates, arg
    a real vector.
    kind 'I_alpha': data is a CanonicalBundle, lam integer coordinates in the
    real lattice Y Z^g, arg a real vector; the semi-character is taken at
    i lam.
    kind 'I_B_alpha': as 'I_alpha' but with doubled character argument and
    the restricted real form.
    """
    if kind == "I_B_rho":
        return factor_i_b_rho(data, lam, arg)
    if not isinstance(data, CanonicalBundle):
        raise ValueError(f"factor kind {kind!r} needs canonical bundle data")
    Y = data.Y
    g = Y.shape[0]
    if kind == "J_H_alpha":
        n = np.asarray(lam)
        ell = data.alpha.vector(n)
        z = np.asarray(arg, dtype=complex).ravel()
        expo = 0.5 * math.pi * data.hermitian(ell, ell) + math.pi * data.hermitian(z, ell)
        return data.alpha.eval(n) * cmath.exp(expo)
    n = np.asarray(lam).ravel()
    lam_vec = Y @ n.astype(float)
    v = np.asarray(arg, dtype=float).ravel()
    if kind == "I_alpha":
        val = data.alpha.eval(_imag_multi(g, n, 1))
        expo = 0.5 * math.pi * data.hermitian(lam_vec, lam_vec) \
            + math.pi * data.hermitian(v, lam_vec)
        return val * cmath.exp(expo)
    if kind == "I_B_alpha":
        val = data.alpha.eval(_imag_multi(g, n, 2))
        Binv = np.linalg.solve(Y, np.eye(g))
        expo = math.pi * float(lam_vec @ Binv @ lam_vec) \
            + 2.0 * math.pi * float(v @ Binv @ lam_vec)
        return val * cmath.exp(expo)
    raise ValueError(f"unknown factor kind {kind!r}")


def _imag_multi(g: int, n: np.ndarray, mult: int) -> np.ndarray:
    out = np.zeros(2 * g, dtype=int)
    out[g:] = mult * np.asarray(n, dtype=int)
    return out
