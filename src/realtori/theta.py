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

Everything a sum needs that does not depend on the argument is a spec's
*plan* (``_Plan``), built on first use and kept on the frozen spec: Pi^-1,
tPi B, the Gram form Q, the character angles, the least eigenvalue of Q,
the argument-free half of the enumerator's ellipsoid and, once a walk is
rebased, the reduced basis.  An argument adds only its cell translate, the
center and offset of its ellipsoid, its radius and its walk; a factor
exponent is pi t(n) Q n + 2 pi (tPi B v).n.  The canonical bundle of Y
seeds the plan with tPi B = I, Q = Y and Pi^-1 = Y^-1, which hold exactly
for the lattice Y Z^g with the form Y^-1, so its section is summed from the
proved Y and not from the rounded product tY Y^-1 Y.
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

    Its sums read a plan (``_Plan``) built from tPi B on first use and kept
    on the spec; ``canonical_line_bundle_data`` builds a spec with its plan.
    Pi, B and rho are read-only copies, so the plan cannot go stale.
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
        _set_read_only(self, np.array(Pi), B, np.array(rho))

    @property
    def g(self) -> int:
        return self.Pi.shape[0]

    @cached_property
    def _plan(self) -> _Plan:
        PtB = self.Pi.T @ self.B
        return _Plan(PtB, _gram(PtB, self.Pi), self.character_angles())

    def gram(self) -> np.ndarray:
        """Gram matrix of B on the lattice basis, symmetrized: the rounding of
        the product need not be symmetric, and a sum over the lattice reads
        one triangle of it."""
        return self._plan.Q.copy()

    def character_angles(self) -> np.ndarray:
        return np.angle(self.rho)


class _Plan:
    """The argument-free part of the theta sums and factors of one spec.

    tPi B, the symmetrized Gram form Q, the character angles and the phases
    -angles of theta's terms are formed with the plan, as a factor needs
    them.  Pi^-1, which finds an argument's cell, is formed by the first
    ``cell`` where it is not given.  What only a sum reads is formed by the
    first ``summing()``: the terms of the tail radius that the least
    eigenvalue mu of Q fixes (``_tail_box``), and the enumerator's
    ``_Form`` of Q, which keeps the reduced basis of a rebased walk.  The
    sums and factors form it under np.errstate(over="ignore",
    invalid="ignore"): a Gram form that overflows is refused by the factor
    or the sum.
    """

    def __init__(self, PtB: np.ndarray, Q: np.ndarray, angles: np.ndarray,
                 Pinv: np.ndarray | None = None):
        self.PtB, self.Q, self.angles, self.Pinv = PtB, Q, angles, Pinv
        self.phases = _phases(-angles)
        self.tails = self.form = None

    def cell(self, Pi: np.ndarray, v: np.ndarray) -> np.ndarray:
        # the lattice coordinates rint(Pi^-1 v) of the cell of v, Pi the spec's
        if self.Pinv is None:
            self.Pinv = np.linalg.inv(Pi)
        return np.rint(self.Pinv @ v)

    def summing(self) -> _Plan:
        if self.form is None:
            mu = float(np.linalg.eigvalsh(self.Q)[0])
            g = len(self.Q)
            self.tails = [(math.pi * t, g * math.log1p(((1 - t) * mu) ** -0.5))
                          for t in _TAIL_SPLITS if (1 - t) * mu > 0]
            self.form = _Form(self.Q)
        return self


def _checked_spec(Pi: np.ndarray, B: np.ndarray, rho: np.ndarray) -> ThetaSpec:
    # a ThetaSpec of values that have passed its checks, without repeating
    # them; the arrays are the caller's own, and become read-only
    spec = object.__new__(ThetaSpec)
    _set_read_only(spec, Pi, B, rho)
    return spec


def _set_read_only(spec: ThetaSpec, Pi: np.ndarray, B: np.ndarray, rho: np.ndarray) -> None:
    for name, value in (("Pi", Pi), ("B", B), ("rho", rho)):
        value.setflags(write=False)
        object.__setattr__(spec, name, value)


def factor_i_b_rho(spec: ThetaSpec, lam_int, v) -> complex:
    """Automorphic factor rho(lam) exp(pi B(lam,lam) + 2 pi B(v,lam)), lam = Pi lam_int."""
    return _factor_at(spec, np.array(_int_vector(lam_int), dtype=float), v)


def _factor_at(spec: ThetaSpec, n: np.ndarray, v) -> complex:
    # factor_i_b_rho at integral coordinates n; a factor that overflows is
    # inf or NaN, for the caller to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        plan = spec._plan
        return _factor(plan, n, plan.PtB @ np.asarray(v, dtype=float).ravel())


def _factor(plan: _Plan, n: np.ndarray, w: np.ndarray) -> complex:
    # rho(n) exp(pi t(n) Q n + 2 pi w.n), w = tPi B v: factor_i_b_rho, called
    # under np.errstate(over="ignore", invalid="ignore")
    expo = math.pi * float(n @ plan.Q @ n) + 2.0 * math.pi * float(w @ n)
    return cmath.exp(1j * float(np.dot(plan.angles, n))) * _exp(math.exp, expo)


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


def _positive(eps: float) -> None:
    # every sum's first check, before any work on the argument
    if not eps > 0:
        raise ValueError("tolerance must be positive")


# ---------------------------------------------------------------------------
# truncated lattice sums with certified tails


def _sum_with_tail(plan: _Plan, w: np.ndarray, eps: float, oscillatory: bool) -> complex:
    """Core truncated sum at w = tPi B v, from ``plan.summing()``;
    ``oscillatory`` switches the linear term to 2 pi i B(v, lam).  Called
    under np.errstate(over="ignore", invalid="ignore"): a sum that overflows
    raises OverflowError.

    The terms exp(-pi (t(k) Q k + b.k) + i c.k), Q the Gram form, are summed
    in elementwise numpy at the points of the ellipsoid of ``_tail_box``,
    each chunk in sorted order and the chunks in order: (b, c) and (-b, -c),
    whose points are mirror images with equal terms, give equal values on a
    box of one chunk.  The offset w Q^-1 w and the terms outside the
    ellipsoid are the same in every basis, so the tail bound holds whichever
    basis the enumerator walks.
    """
    g = len(w)
    box = _tail_box(plan, w, eps, oscillatory)
    c = _phases(plan.angles + 2.0 * math.pi * w) if oscillatory else plan.phases
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


def _tail_box(plan: _Plan, w: np.ndarray, eps: float, oscillatory: bool) -> _Box:
    """The bounding box of the ellipsoid t(k) Q k + b.k + offset <= rho^2
    whose points the sum takes, b = 2 w (b = 0 when ``oscillatory``: the
    linear term is then a pure phase), with the offset w Q^-1 w from the
    same inverse as the box.

    rho^2 is the least, over t in ``_TAIL_SPLITS``, that makes e^(pi offset)
    e^(-pi t rho^2) (1 + ((1 - t) mu)^(-1/2))^g at most eps, in logs.  It
    bounds the terms where q(k - c) > rho^2, c the center and mu the least
    eigenvalue of q: e^(-pi q) <= e^(-pi t rho^2) e^(-pi (1 - t) q) there,
    q(x) >= mu |x|^2, and a Gaussian sum in one variable is at most its peak
    plus its integral.  The plan holds pi t and g log(1 + ((1 - t) mu)^(-1/2))
    for each t where (1 - t) mu does not underflow.
    """
    b = [0.0] * len(w) if oscillatory else [2.0 * x for x in w.tolist()]
    ellipsoid = _Ellipsoid(plan.form, b)
    peak, log_eps = math.pi * ellipsoid.offset, math.log(eps)
    # inf, which the enumerator refuses, where (1 - t) mu underflows for every t
    rho2 = max(0.0, min([(peak + tail - log_eps) / pi_t for pi_t, tail in plan.tails],
                        default=math.inf))
    return ellipsoid.box(rho2)


def theta_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Theta value sum_{lam} rho(lam)^-1 exp(-pi B(lam,lam) - 2 pi B(v,lam)).

    The argument is reduced into the fundamental cell; the removed lattice
    translate is re-applied exactly through the transformation law.
    """
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != spec.g:
        raise ValueError("argument dimension mismatch")
    with np.errstate(over="ignore", invalid="ignore"):
        plan = spec._plan
        m = plan.cell(spec.Pi, v)
        if not any(m.tolist()):
            return _sum_with_tail(plan.summing(), plan.PtB @ v, eps, oscillatory=False)
        # the factor first: one that overflows is inf or NaN, returned for
        # the caller to refuse before the sum is sized; overflowing
        # coordinates leave inf or NaN in m, and so in the factor
        w = plan.PtB @ (v - spec.Pi @ m)
        factor = _factor(plan, m, w)
        if not cmath.isfinite(factor):
            return factor
        return factor * _sum_with_tail(plan.summing(), w, eps, oscillatory=False)


def theta_transform_residual(spec: ThetaSpec, lam_int, v,
                             eps: float = 1e-13) -> float:
    """Residual |theta(v + lam) - I(lam, v) theta(v)|, lam = Pi lam_int, both sides summed."""
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    n = np.array(_int_vector(lam_int), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        plan = spec._plan.summing()
        lhs = _sum_with_tail(plan, plan.PtB @ (v + spec.Pi @ n), eps, oscillatory=False)
        w = plan.PtB @ v
        rhs = _factor(plan, n, w) * _sum_with_tail(plan, w, eps, oscillatory=False)
    return abs(lhs - rhs)


def periodic_function_eval(spec: ThetaSpec, v, eps: float = 1e-12) -> complex:
    """Lattice-periodic sum rho(lam) exp(-pi B(lam,lam) + 2 pi i B(v,lam)).

    Requires the Gram form to be integral on the lattice (``_INTEGRALITY_TOL``).
    """
    _positive(eps)
    v = np.asarray(v, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        plan = spec._plan
        if float(np.max(np.abs(plan.Q - np.round(plan.Q)))) > _INTEGRALITY_TOL:
            raise ValueError("Gram form is not integral on the lattice")
        return _sum_with_tail(plan.summing(), plan.PtB @ v, eps, oscillatory=True)


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
    is summed from Y itself, exp(-pi t(k) Y k - 2 pi v.k), through the
    spec's plan; B = Y^-1 is kept, symmetrized, for readers only, so it is
    checked to be finite but not proved definite.  Y is the spec's Pi, and
    read-only like it.
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
    g = Y.shape[0]
    # a proved Y is invertible; B = Y^-1 is only read, so it is only checked
    # to be finite once symmetrized, which turns entries above max / 2 to inf
    B = np.linalg.inv(Y)
    if not float(abs(B).max()) <= _HALF_MAX:
        raise ValueError("SPD matrix must have finite entries")
    B = _symmetrized(B)
    # the character on the real lattice Y Z^g is rho_j = alpha(2 i lam_j) = 1,
    # since every basis value of alpha is one and 2 e_{g+j} has no parity term
    spec = _checked_spec(Y, B, np.ones(g, dtype=complex))
    # tPi B = tY Y^-1 = I and Q = tY Y^-1 Y = Y, exactly, the character
    # angles are 0, and Pi^-1 = B
    object.__setattr__(spec, "_plan", _Plan(np.eye(g), Y, np.zeros(g), B))
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
        return _factor_at(data, np.array(n, dtype=float), arg)
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
