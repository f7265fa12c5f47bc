"""Semi-characters, automorphic factors, and theta series on real tori.

A theta datum is a lattice Pi Z^g, an SPD Gram form B, and a unit character
given by its values on the lattice basis.  The argument is first translated
into the fundamental cell and the removed translate re-applied exactly
through the transformation law, so conditioning does not depend on v.  A
series is a sum over the lattice points of an ellipsoid, listed in numpy
chunks by the enumerator that also serves short-vector search
(``spdcone._Ellipsoid``), with a certified Gaussian tail bound on
everything outside it.  Its value depends only on the GL(g, Z)-class of the
Gram form, so the enumerator may walk the ellipsoid in a reduced basis; it
returns the points in the given one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlinalg import _as_exact, _int_vector, _symplectic_form
from .spdcone import _Box, _Ellipsoid, _invertible, require_spd
from .tori import _hermitian

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

# values of t in (0, 1) tried by the tail bound of ``_tail_box``
_TAIL_SPLITS = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99)
# largest |Q - round(Q)| of a Gram form Q that periodic_function_eval takes
_INTEGRALITY_TOL = 1e-9


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
        if not (abs(abs(rho) - 1.0) <= 1e-9).all():
            raise ValueError("character values must have modulus one")
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "rho", rho)

    @property
    def g(self) -> int:
        return self.Pi.shape[0]

    def gram(self) -> np.ndarray:
        """Gram matrix of B on the lattice basis, symmetrized: the rounding of
        the product need not be symmetric, and a sum over the lattice reads
        one triangle of it."""
        return _gram(self.Pi.T @ self.B, self.Pi)

    def character_angles(self) -> np.ndarray:
        return np.angle(self.rho)


def _checked_spec(Pi: np.ndarray, B: np.ndarray, rho: np.ndarray) -> ThetaSpec:
    # a ThetaSpec of values that have passed its checks, without repeating them
    spec = object.__new__(ThetaSpec)
    for name, value in (("Pi", Pi), ("B", B), ("rho", rho)):
        object.__setattr__(spec, name, value)
    return spec


def factor_i_b_rho(spec: ThetaSpec, lam_int, v) -> complex:
    """Automorphic factor rho(lam) exp(pi B(lam,lam) + 2 pi B(v,lam)), lam = Pi lam_int."""
    n = np.array(_int_vector(lam_int), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _factor_i_b_rho(spec, n, np.asarray(v, dtype=float).ravel())


def _factor_i_b_rho(spec: ThetaSpec, n: np.ndarray, v: np.ndarray) -> complex:
    # factor_i_b_rho at integral coordinates n and a flat v, called under
    # np.errstate(over="ignore", invalid="ignore"): a factor that overflows
    # is inf or NaN, for the caller to refuse
    lam = spec.Pi @ n
    expo = math.pi * float(lam @ spec.B @ lam) + 2.0 * math.pi * float(v @ spec.B @ lam)
    return cmath.exp(1j * float(np.dot(spec.character_angles(), n))) * _exp(math.exp, expo)


def _gram(PtB: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    # the symmetrized Gram form (tPi B) Pi, from tPi B
    Q = PtB @ Pi
    return 0.5 * (Q + Q.T)


def _exp(exp, x):
    # exp(x) by math.exp or cmath.exp, inf where it overflows
    try:
        return exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# truncated lattice sums with certified tails


def _sum_with_tail(spec: ThetaSpec, v: np.ndarray, eps: float, oscillatory: bool) -> complex:
    """Core truncated sum; ``oscillatory`` switches the linear term to 2 pi i B(v, lam).

    The terms exp(-pi (t(k) Q k + b.k) + i c.k), Q the Gram form, are summed
    in elementwise numpy at the points of the ellipsoid of ``_tail_box``,
    each chunk in sorted order and the chunks in order: (b, c) and (-b, -c),
    whose points are mirror images with equal terms, give equal values on a
    box of one chunk.  The offset w Q^-1 w and the terms outside the
    ellipsoid are the same in every basis, so the tail bound holds whichever
    basis the enumerator walks.
    """
    if not eps > 0:
        raise ValueError("tolerance must be positive")
    g = spec.g
    PtB = spec.Pi.T @ spec.B
    w = PtB @ v
    angles = spec.character_angles()
    box = _tail_box(_gram(PtB, spec.Pi), w, eps, oscillatory)
    c = angles + 2.0 * math.pi * w if oscillatory else -angles
    real = imag = 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k, values in box.points():
                terms = np.exp(-math.pi * values)
                if c.any():
                    phase = c[0] * k[0]
                    for i in range(1, g):
                        phase += c[i] * k[i]
                    terms = terms * np.exp(1j * phase)
                    imag += float(np.sort(terms.imag).sum())
                real += float(np.sort(terms.real).sum())
    except RuntimeError as exc:
        raise ValueError(f"tolerance {eps} unreachable: {exc}") from exc
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise OverflowError("theta sum overflows")
    return complex(real, imag)


def _tail_box(Q: np.ndarray, w: np.ndarray, eps: float, oscillatory: bool) -> _Box:
    """The bounding box of the ellipsoid t(k) Q k + b.k + offset <= rho^2
    whose points the sum takes, b = 2 w (b = 0 when ``oscillatory``: the
    linear term is then a pure phase), with the offset w Q^-1 w from the
    same inverse as the box.

    rho^2 is the least, over t in ``_TAIL_SPLITS``, that makes e^(pi offset)
    e^(-pi t rho^2) (1 + ((1 - t) mu)^(-1/2))^g at most eps, in logs.  It
    bounds the terms where q(k - c) > rho^2, c the center and mu the least
    eigenvalue of q: e^(-pi q) <= e^(-pi t rho^2) e^(-pi (1 - t) q) there,
    q(x) >= mu |x|^2, and a Gaussian sum in one variable is at most its peak
    plus its integral.
    """
    g = Q.shape[0]
    ellipsoid = _Ellipsoid(Q, [0.0] * g if oscillatory else (2.0 * w).tolist())
    mu = float(np.linalg.eigvalsh(Q)[0])
    # inf, which the enumerator refuses, where (1 - t) mu underflows for every t
    rho2 = max(0.0, min([(math.pi * ellipsoid.offset + g * math.log1p(((1 - t) * mu) ** -0.5)
                          - math.log(eps)) / (math.pi * t) for t in _TAIL_SPLITS
                         if (1 - t) * mu > 0], default=math.inf))
    return ellipsoid.box(rho2)


def theta_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Theta value sum_{lam} rho(lam)^-1 exp(-pi B(lam,lam) - 2 pi B(v,lam)).

    The argument is reduced into the fundamental cell; the removed lattice
    translate is re-applied exactly through the transformation law.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != spec.g:
        raise ValueError("argument dimension mismatch")
    m = np.round(np.linalg.solve(spec.Pi, v))
    if not m.any():
        return _sum_with_tail(spec, v, eps, oscillatory=False)
    # the factor first: one that overflows is inf or NaN, returned for the
    # caller to refuse before the sum's walk; overflowing coordinates leave
    # inf or NaN in m, and so in the factor
    with np.errstate(over="ignore", invalid="ignore"):
        v_red = v - spec.Pi @ m
        factor = _factor_i_b_rho(spec, m, v_red)
    if not cmath.isfinite(factor):
        return factor
    return factor * _sum_with_tail(spec, v_red, eps, oscillatory=False)


def theta_transform_residual(spec: ThetaSpec, lam_int, v,
                             eps: float = 1e-13) -> float:
    """Residual |theta(v + lam) - I(lam, v) theta(v)|, lam = Pi lam_int, both sides summed."""
    v = np.asarray(v, dtype=float).ravel()
    n = np.array(_int_vector(lam_int), dtype=float)
    lam = spec.Pi @ n
    lhs = _sum_with_tail(spec, v + lam, eps, oscillatory=False)
    with np.errstate(over="ignore", invalid="ignore"):
        factor = _factor_i_b_rho(spec, n, v)
    rhs = factor * _sum_with_tail(spec, v, eps, oscillatory=False)
    return abs(lhs - rhs)


def periodic_function_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Lattice-periodic sum rho(lam) exp(-pi B(lam,lam) + 2 pi i B(v,lam)).

    Requires the Gram form to be integral on the lattice (``_INTEGRALITY_TOL``).
    """
    Q = spec.gram()
    if float(np.max(np.abs(Q - np.round(Q)))) > _INTEGRALITY_TOL:
        raise ValueError("Gram form is not integral on the lattice")
    v = np.asarray(v, dtype=float).ravel()
    return _sum_with_tail(spec, v, eps, oscillatory=True)


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
        E = _as_exact(self.E)
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
        n, m = _int_vector(n), _int_vector(m)
        return int(sum(n[j] * self.E[j, k] * m[k]
                       for j in range(len(n)) for k in range(len(m))))

    def eval(self, n) -> complex:
        return self._eval(_int_vector(n))

    def _eval(self, n: list[int]) -> complex:
        # eval at coordinates given as Python ints
        two_g = len(n)
        phase = float(np.dot(np.angle(self.values), n))
        parity = 0
        for j in range(two_g):
            for k in range(j + 1, two_g):
                parity += n[j] * n[k] * self.E[j, k]
        sign = -1.0 if parity % 2 else 1.0
        return sign * cmath.exp(1j * phase)


def canonical_semicharacter_data(Y) -> SemiCharacter:
    """The canonical semi-character of the lattice Z^g + i Y Z^g.

    All basis values are one; the Gram matrix of the polarization on the
    basis (e_j, i Y e_j) is the standard alternating form with a sign.
    """
    return _canonical_semicharacter_data(require_spd(Y))


def _canonical_semicharacter_data(Y: np.ndarray) -> SemiCharacter:
    # canonical_semicharacter_data of a validated Y
    g = Y.shape[0]
    basis = np.zeros((g, 2 * g), dtype=complex)
    basis[:, :g] = np.eye(g)
    basis[:, g:] = 1j * Y
    return SemiCharacter(basis=basis, values=np.ones(2 * g, dtype=complex),
                         E=-_symplectic_form(g))


def canonical_semicharacter(Y, kappa, lam_int) -> complex:
    """Value exp(-pi i t(kappa) lam_int) on the vector kappa + i Y lam_int."""
    require_spd(Y)
    kappa = _int_vector(kappa)
    lam_int = _int_vector(lam_int)
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
    ``canonical_line_bundle_data`` builds it from a validated Y.
    """

    Y: np.ndarray
    spec: ThetaSpec

    @cached_property
    def alpha(self) -> SemiCharacter:
        """The canonical semi-character, built on first read: a theta value
        needs only ``spec``."""
        return _canonical_semicharacter_data(self.Y)

    def hermitian(self, x, y) -> complex:
        return _hermitian(self.Y, x, y)

    def section(self, v, eps: float = 1e-12) -> complex:
        """Global section theta value at a real argument."""
        return theta_eval(self.spec, v, eps=eps)


def canonical_line_bundle_data(Y) -> CanonicalBundle:
    Y = require_spd(Y)
    B = np.linalg.inv(Y)
    # the checks of ThetaSpec on Pi = Y and B = Y^-1; the character on the
    # real lattice Y Z^g is rho_j = alpha(2 i lam_j) = 1, since every basis
    # value of alpha is one and 2 e_{g+j} has no parity term
    spec = _checked_spec(_invertible(Y, "lattice basis"), require_spd(B),
                         np.ones(Y.shape[0], dtype=complex))
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

    A value that overflows is returned as inf or NaN for the caller to refuse.
    """
    n = _int_vector(lam)
    if kind == "I_B_rho":
        with np.errstate(over="ignore", invalid="ignore"):
            return _factor_i_b_rho(data, np.array(n, dtype=float),
                                   np.asarray(arg, dtype=float).ravel())
    if not isinstance(data, CanonicalBundle):
        raise ValueError(f"factor kind {kind!r} needs canonical bundle data")
    Y = data.Y
    g = Y.shape[0]
    if kind == "J_H_alpha":
        ell = data.alpha.vector(n)
        z = np.asarray(arg, dtype=complex).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            expo = 0.5 * math.pi * data.hermitian(ell, ell) + math.pi * data.hermitian(z, ell)
        return data.alpha._eval(n) * _exp(cmath.exp, expo)
    lam_vec = Y @ np.array(n, dtype=float)
    v = np.asarray(arg, dtype=float).ravel()
    if kind == "I_alpha":
        val = data.alpha._eval(_imag_multi(g, n, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            expo = 0.5 * math.pi * data.hermitian(lam_vec, lam_vec) \
                + math.pi * data.hermitian(v, lam_vec)
        return val * _exp(cmath.exp, expo)
    if kind == "I_B_alpha":
        val = data.alpha._eval(_imag_multi(g, n, 2))
        Binv = np.linalg.solve(Y, np.eye(g))
        with np.errstate(over="ignore", invalid="ignore"):
            expo = math.pi * float(lam_vec @ Binv @ lam_vec) \
                + 2.0 * math.pi * float(v @ Binv @ lam_vec)
        return val * _exp(cmath.exp, expo)
    raise ValueError(f"unknown factor kind {kind!r}")


def _imag_multi(g: int, n: list[int], mult: int) -> list[int]:
    return [0] * g + [mult * k for k in n]
