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

A spec holds what every factor and sum reads, formed once with it: tPi B,
the Gram form Q and the character angles.  Each sum forms its own
enumerator form of Q, whose inverse Q^-1 also finds the cell rint(Q^-1 tPi B
v) = rint(Pi^-1 v), and its own tail terms from the least eigenvalue of Q:
every request sums one argument of a new spec, so nothing is kept across
calls.  A factor exponent is pi t(n) Q n + 2 pi (tPi B v).n.  The canonical
bundle of Y has tPi B = I and Q = Y exactly, so its section is summed from
the proved Y.
``eps`` bounds the tail of the sum over the cell, which the transformation
law's factor then multiplies: outside the cell the absolute error scales
with |factor|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exactlinalg import _as_exact, _int_vector, _symplectic_form
from .spdcone import _HALF_MAX, _Box, _Ellipsoid, _Form, _invertible, _symmetrized, require_spd
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
    """Lattice Pi Z^g with SPD Gram form B and unit character values rho.

    Its sums and factors read Q, tPi B and the character angles and phases
    (``_set``), derived from Pi, B and rho once, at construction; Pi, B and
    rho are read-only copies, so what was derived from them cannot go stale.
    """

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
        with np.errstate(over="ignore", invalid="ignore"):
            PtB = Pi.T @ B
            Q = _symmetrized(PtB @ Pi)
        _set(self, Q, PtB, np.angle(rho), Pi=np.array(Pi), B=B, rho=np.array(rho))

    @property
    def g(self) -> int:
        return self.Pi.shape[0]

    def gram(self) -> np.ndarray:
        """Gram matrix of B on the lattice basis, symmetrized: the rounding of
        the product need not be symmetric, and a sum over the lattice reads
        one triangle of it."""
        return self._Q.copy()


def _set(spec: ThetaSpec, Q: np.ndarray, PtB, angles, **arrays: np.ndarray) -> None:
    """Set a spec's arrays and what its factors and sums read, all read-only:
    the symmetrized Gram form ``_Q``, ``_PtB`` = tPi B (None for I), the
    character ``_angles`` (None for 0) and ``_phases``, -angles as a sum
    reads them.  The arrays are formed under np.errstate(over="ignore",
    invalid="ignore"): a Gram form that overflows is refused by the factor or
    the sum."""
    arrays.update(_Q=Q, _PtB=PtB, _angles=angles)
    for name, value in arrays.items():
        if value is not None:
            value.setflags(write=False)
        object.__setattr__(spec, name, value)
    object.__setattr__(spec, "_phases", None if angles is None else _phases(-angles))


def factor_i_b_rho(spec: ThetaSpec, lam_int, v) -> complex:
    """Automorphic factor rho(lam) exp(pi B(lam,lam) + 2 pi B(v,lam)), lam = Pi
    lam_int; one that overflows is inf or NaN, for the caller to refuse."""
    n = np.array(_int_vector(lam_int), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _factor(spec, n, _linear(spec, np.asarray(v, dtype=float).ravel()))


def _linear(spec: ThetaSpec, v: np.ndarray) -> np.ndarray:
    # w = tPi B v, the coefficients of the linear term 2 pi w.k
    return v if spec._PtB is None else spec._PtB @ v


def _ellipsoid(form: _Form, w: np.ndarray) -> _Ellipsoid:
    # the ellipsoid t(k) Q k + 2 w.k of a sum at w, centered at -Q^-1 w
    return _Ellipsoid(form, [2.0 * x for x in w.tolist()])


def _factor(spec: ThetaSpec, n: np.ndarray, w: np.ndarray) -> complex:
    # rho(n) exp(pi t(n) Q n + 2 pi w.n), w = tPi B v: factor_i_b_rho, called
    # under np.errstate(over="ignore", invalid="ignore")
    phase = 0.0 if spec._angles is None else float(np.dot(spec._angles, n))
    return cmath.exp(1j * phase) * _exp(math.exp, _exponent(spec, n, w))


def _exponent(spec: ThetaSpec, n: np.ndarray, w: np.ndarray) -> float:
    # the exponent pi t(n) Q n + 2 pi w.n of _factor
    return math.pi * float(n @ spec._Q @ n) + 2.0 * math.pi * float(w @ n)


def _exp(exp, x):
    # exp(x) by math.exp or cmath.exp, inf where it overflows
    try:
        return exp(x)
    except OverflowError:
        return math.inf


def _positive(eps: float) -> None:
    # every sum's first check, before any work on the argument
    if not eps > 0:
        raise ValueError("tolerance must be positive")


# ---------------------------------------------------------------------------
# truncated lattice sums with certified tails


def _sum_with_tail(Q: np.ndarray, ellipsoid: _Ellipsoid, c: list | None, eps: float) -> complex:
    """Core truncated sum over ``ellipsoid`` of the Gram form Q, with the
    phases c.k of ``_phases`` (a periodic sum's linear term is a phase,
    and its ellipsoid has b = 0).  Called under np.errstate(over="ignore",
    invalid="ignore"): a sum that overflows raises OverflowError.

    The terms exp(-pi (t(k) Q k + b.k) + i c.k), Q the Gram form, are summed
    in elementwise numpy at the points of the ellipsoid of ``_tail_box``,
    each chunk in sorted order and the chunks in order: (b, c) and (-b, -c),
    whose points are mirror images with equal terms, give equal values on a
    box of one chunk.  The offset w Q^-1 w and the terms outside the
    ellipsoid are the same in every basis, so the tail bound holds whichever
    basis the enumerator walks.
    """
    g = len(Q)
    box = _tail_box(Q, ellipsoid, eps)
    real = imag = 0.0
    try:
        for k, values in box.points():
            terms = np.exp(-math.pi * values)
            if c:
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


def _phases(c: np.ndarray) -> list | None:
    # the coefficients c of the phases c.k of a sum's terms, or None where all are 0
    c = c.tolist()
    return c if any(c) else None


def _tail_box(Q: np.ndarray, ellipsoid: _Ellipsoid, eps: float) -> _Box:
    """The bounding box of ``ellipsoid``, t(k) Q k + b.k + offset <= rho^2,
    whose points the sum takes, with the offset w Q^-1 w (b = 2 w) from the
    same inverse as the box.

    rho^2 is the least, over t in ``_TAIL_SPLITS``, that makes e^(pi offset)
    e^(-pi t rho^2) (1 + ((1 - t) mu)^(-1/2))^g at most eps, in logs.  It
    bounds the terms where q(k - c) > rho^2, c the center and mu the least
    eigenvalue of q: e^(-pi q) <= e^(-pi t rho^2) e^(-pi (1 - t) q) there,
    q(x) >= mu |x|^2, and a Gaussian sum in one variable is at most its peak
    plus its integral.  The t where (1 - t) mu underflows are skipped.
    """
    mu = float(np.linalg.eigvalsh(Q)[0])
    g = len(Q)
    peak, log_eps = math.pi * ellipsoid.offset, math.log(eps)
    # inf, which the enumerator refuses, where (1 - t) mu underflows for every t
    rho2 = max(0.0, min([(peak + g * math.log1p(((1 - t) * mu) ** -0.5) - log_eps) / (math.pi * t)
                         for t in _TAIL_SPLITS if (1 - t) * mu > 0], default=math.inf))
    return ellipsoid.box(rho2)


def theta_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Theta value sum_{lam} rho(lam)^-1 exp(-pi B(lam,lam) - 2 pi B(v,lam)).

    The argument is reduced into the fundamental cell; the removed lattice
    translate is re-applied exactly through the transformation law.  ``eps``
    bounds the tail of the cell sum, which the law's factor then multiplies:
    outside the cell the absolute error scales with |factor|.  A finite Gram
    form that the enumerator cannot invert, as where an entry underflows to
    0, has no cell: ValueError.  One that overflows gives NaN, for the caller
    to refuse.
    """
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != spec.g:
        raise ValueError("argument dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        # one form finds the cell and sizes the sum
        form = _Form(spec._Q)
        if form.Z is None:
            if np.isfinite(spec._Q).all():
                raise ValueError("Gram form is not invertible in floating point")
            return complex(math.nan, math.nan)
        ellipsoid = _ellipsoid(form, _linear(spec, v))
        if all(abs(x) <= 0.5 for x in ellipsoid.c):  # rint(-c) = 0
            return _sum_with_tail(spec._Q, ellipsoid, spec._phases, eps)
        # the factor first: one that overflows is inf or NaN, returned for the
        # caller to refuse before the sum is sized; an overflowing or NaN
        # center leaves inf or NaN in m, and so in the factor
        m = -np.rint(ellipsoid.c)
        w = _linear(spec, v - spec.Pi @ m)
        factor = _factor(spec, m, w)
        if not cmath.isfinite(factor):
            return factor
        return factor * _sum_with_tail(spec._Q, _ellipsoid(form, w), spec._phases, eps)


def theta_transform_residual(spec: ThetaSpec, lam_int, v,
                             eps: float = 1e-13) -> float:
    """Residual |theta(v + lam) - I(lam, v) theta(v)|, lam = Pi lam_int, both sides summed."""
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    n = np.array(_int_vector(lam_int), dtype=float)
    Q, phases = spec._Q, spec._phases
    with np.errstate(over="ignore", invalid="ignore"):
        form = _Form(Q)
        lhs = _sum_with_tail(Q, _ellipsoid(form, _linear(spec, v + spec.Pi @ n)), phases, eps)
        w = _linear(spec, v)
        rhs = _factor(spec, n, w) * _sum_with_tail(Q, _ellipsoid(form, w), phases, eps)
    return abs(lhs - rhs)


def periodic_function_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Lattice-periodic sum rho(lam) exp(-pi B(lam,lam) + 2 pi i B(v,lam)).

    Requires the Gram form to be integral on the lattice (``_INTEGRALITY_TOL``).
    """
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    Q = spec._Q
    with np.errstate(over="ignore", invalid="ignore"):
        if float(np.max(np.abs(Q - np.round(Q)))) > _INTEGRALITY_TOL:
            raise ValueError("Gram form is not integral on the lattice")
        c = _phases(np.angle(spec.rho) + 2.0 * math.pi * _linear(spec, v))
        return _sum_with_tail(Q, _ellipsoid(_Form(Q), np.zeros(len(v))), c, eps)


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
    ``canonical_line_bundle_data`` builds it from a proved Y.  The section
    and the real factors are formed from Y itself, exp(-pi t(k) Y k -
    2 pi v.k), with the spec's Q = Y; B = Y^-1 is formed, symmetrized,
    when a reader first reads it (``_CanonicalSpec``).  Y is the spec's Pi,
    and read-only like it.
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


class _CanonicalSpec(ThetaSpec):
    """The canonical bundle's spec: Pi = Q = Y, tPi B = I and angles 0, set
    once by ``canonical_line_bundle_data``; rho = 1 and B = Y^-1 are formed
    on first read, as the section and factors read neither."""

    @cached_property
    def rho(self) -> np.ndarray:
        # the character on the real lattice Y Z^g is rho_j = alpha(2 i lam_j) = 1,
        # since every basis value of alpha is one and 2 e_{g+j} has no parity term
        rho = np.ones(len(self.Pi), dtype=complex)
        rho.setflags(write=False)
        return rho

    @cached_property
    def B(self) -> np.ndarray:
        # only read, so only checked finite once symmetrized (entries over max / 2 turn inf)
        B = np.linalg.inv(self.Pi)
        if not float(abs(B).max()) <= _HALF_MAX:
            raise ValueError("SPD matrix must have finite entries")
        B = _symmetrized(B)
        B.setflags(write=False)
        return B


def canonical_line_bundle_data(Y) -> CanonicalBundle:
    Y = require_spd(Y)
    spec = object.__new__(_CanonicalSpec)
    _set(spec, Y, None, None, Pi=Y)
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

    The real kinds read Y: the exponent of 'I_B_alpha' is the canonical
    spec's pi t(n) Y n + 2 pi v.n, and that of 'I_alpha' half of it.  A value
    that overflows is returned as inf or NaN for the caller to refuse.
    """
    if kind == "I_B_rho":
        return factor_i_b_rho(data, lam, arg)
    n = _int_vector(lam)
    if not isinstance(data, CanonicalBundle):
        raise ValueError(f"factor kind {kind!r} needs canonical bundle data")
    g = data.Y.shape[0]
    if kind == "J_H_alpha":
        ell = data.alpha.vector(n)
        z = np.asarray(arg, dtype=complex).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            expo = 0.5 * math.pi * data.hermitian(ell, ell) + math.pi * data.hermitian(z, ell)
        return data.alpha._eval(n) * _exp(cmath.exp, expo)
    if kind not in ("I_alpha", "I_B_alpha"):
        raise ValueError(f"unknown factor kind {kind!r}")
    spec = data.spec
    with np.errstate(over="ignore", invalid="ignore"):
        expo = _exponent(spec, np.array(n, dtype=float),
                         _linear(spec, np.asarray(arg, dtype=float).ravel()))
    if kind == "I_alpha":
        return data.alpha._eval(_imag_multi(g, n, 1)) * _exp(cmath.exp, 0.5 * expo)
    return data.alpha._eval(_imag_multi(g, n, 2)) * _exp(cmath.exp, expo)


def _imag_multi(g: int, n: list[int], mult: int) -> list[int]:
    return [0] * g + [mult * k for k in n]
