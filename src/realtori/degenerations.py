"""Degenerating families of tori and their semi-torus / semi-abelian limits.

A family is given by samples Y(xi_k) (real) or Z(zeta_k) (complex) along a
parameter decreasing to zero.  Divergence of trailing Jacobi diagonal factors
signals a multiplicative part of rank t; the limit matrix keeps its leading
g - t columns and zeroes the trailing ones.  Integral involutions with
square one are classified into their multiplicative splitting type through
saturated fixed and anti-fixed sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exactlinalg import _as_exact, det_int, kernel_basis
from .siegel import _siegel_factor, require_siegel
from .spdcone import JacobiFactors, _jacobi, jacobi_decomposition, require_spd

__all__ = [
    "FamilySample",
    "DivergenceReport",
    "detect_divergence",
    "limit_matrix",
    "SemiTorusLimit",
    "semi_torus_limit",
    "semi_abelian_limit",
    "involution_splitting_type",
]


@dataclass(frozen=True)
class FamilySample:
    """Samples of a matrix family along strictly decreasing positive parameters;
    the family is complex (Siegel half-space points) when any sample is."""

    params: np.ndarray
    matrices: list

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        if params.ndim != 1 or len(self.matrices) != params.shape[0]:
            raise ValueError("one matrix per parameter is required")
        if np.any(params <= 0) or np.any(np.diff(params) >= 0):
            raise ValueError("parameters must be strictly decreasing and positive")
        if len({np.shape(M) for M in self.matrices}) > 1:
            raise ValueError("all samples must have the same shape")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_complex", any(np.iscomplexobj(M) for M in self.matrices))

    # the Jacobi factors of each sample (of Im Z for a complex family), built on
    # first read from the factor that validates the sample
    @cached_property
    def _factors(self) -> list[JacobiFactors]:
        if self._complex:
            return [_jacobi(_siegel_factor(M)[1]) for M in self.matrices]
        return [jacobi_decomposition(M) for M in self.matrices]


# finite-sample stand-ins for the analytic limit conditions
_GROWTH_FACTOR = 4.0
_MAGNITUDE_RATIO = 1e6
_CAUCHY_RTOL = 1e-2
_W_RTOL = 1e-2


@dataclass(frozen=True)
class DivergenceReport:
    status: str                      # "ok" or "undecided"
    t: int | None
    verdicts: list[str] = field(default_factory=list)
    detail: str = ""


def detect_divergence(sample: FamilySample) -> DivergenceReport:
    """Per-index limit verdicts for the Jacobi diagonal of a sampled family.

    An index is convergent when its last steps are Cauchy, divergent when it
    grows by the threshold factor across each of the last two steps and
    dwarfs the converged diagonal entries; anything else leaves the family
    undecided.  The unit-triangular factor must itself look convergent.
    """
    if len(sample.matrices) < 3:
        raise ValueError("at least three samples are required")
    ds = [fac.d for fac in sample._factors]
    g = ds[0].shape[0]
    d2, d1, d0 = ds[-3], ds[-2], ds[-1]
    verdicts = []
    for i in range(g):
        grew = d0[i] >= _GROWTH_FACTOR * d1[i] and d1[i] >= _GROWTH_FACTOR * d2[i]
        cauchy = abs(d0[i] - d1[i]) <= _CAUCHY_RTOL * max(1.0, abs(d0[i]))
        if grew:
            verdicts.append("divergent")
        elif cauchy:
            verdicts.append("convergent")
        else:
            verdicts.append("undecided")
    if "undecided" in verdicts:
        return DivergenceReport(status="undecided", t=None, verdicts=verdicts,
                                detail="no clear trend for some diagonal index")
    conv = [i for i, v in enumerate(verdicts) if v == "convergent"]
    div = [i for i, v in enumerate(verdicts) if v == "divergent"]
    if div and conv:
        median_conv = float(np.median([d0[i] for i in conv]))
        for i in div:
            if d0[i] < _MAGNITUDE_RATIO * max(median_conv, 1e-300):
                return DivergenceReport(status="undecided", t=None, verdicts=verdicts,
                                        detail="divergent entries not separated enough")
    if div and div != list(range(g - len(div), g)):
        return DivergenceReport(status="undecided", t=None, verdicts=verdicts,
                                detail="divergent indices are not trailing")
    W1, W0 = sample._factors[-2].W, sample._factors[-1].W
    w_drift = float(np.max(np.abs(W0 - W1)))
    if w_drift > _W_RTOL * max(1.0, float(np.max(np.abs(W0)))):
        return DivergenceReport(status="undecided", t=None, verdicts=verdicts,
                                detail="unit-triangular factor is not settling")
    return DivergenceReport(status="ok", t=len(div), verdicts=verdicts)


def limit_matrix(sample: FamilySample, t: int) -> np.ndarray:
    """Assemble the limit matrix: converged entries in the leading g - t
    columns, zeros in the trailing t columns; for a complex family the real
    part of those columns is the last sample's.

    Only the first min(i, j) + 1 Jacobi terms contribute to entry (i, j) with
    j below the cutoff, and those terms converge, so the last sample's
    factors give the limit.
    """
    W, d = sample._factors[-1].W, sample._factors[-1].d
    g = W.shape[0]
    if not 0 <= t <= g:
        raise ValueError("rank of the multiplicative part out of range")
    lead = g - t
    imag = np.zeros((g, g))
    for i in range(g):
        for j in range(lead):
            m_top = min(i, j)
            imag[i, j] = sum(W[m, i] * d[m] * W[m, j] for m in range(m_top + 1))
    if not sample._complex:
        return imag
    out = np.zeros((g, g), dtype=complex)
    X = np.asarray(sample.matrices[-1], dtype=complex).real
    out[:, :lead] = X[:, :lead] + 1j * imag[:, :lead]
    return out


@dataclass(frozen=True)
class SemiTorusLimit:
    """Limit data: multiplicative rank t, SPD core, and the full limit matrix."""

    t: int
    Y_diamond: np.ndarray
    Y0: np.ndarray


def _check_zero_pattern(M: np.ndarray, t: int) -> None:
    g = M.shape[0]
    lead = g - t
    if t > 0 and float(np.max(np.abs(M[:, lead:]))) > 0:
        raise ValueError("trailing columns of the limit matrix must vanish")


def semi_torus_limit(Y0, t: int) -> SemiTorusLimit:
    """Split a real limit matrix into its torus core and multiplicative rank."""
    Y0 = np.asarray(Y0, dtype=float)
    g = Y0.shape[0]
    if not 0 <= t <= g:
        raise ValueError("rank of the multiplicative part out of range")
    _check_zero_pattern(Y0, t)
    lead = g - t
    core = Y0[:lead, :lead]
    if lead > 0:
        core = require_spd(core)
    return SemiTorusLimit(t=t, Y_diamond=core, Y0=Y0)


def semi_abelian_limit(Z0, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a complex limit matrix into its abelian core and extension rows."""
    Z0 = np.asarray(Z0, dtype=complex)
    g = Z0.shape[0]
    if not 0 <= t <= g:
        raise ValueError("rank of the multiplicative part out of range")
    _check_zero_pattern(Z0, t)
    lead = g - t
    core = Z0[:lead, :lead]
    if lead > 0:
        core = require_siegel(core)
    rows = Z0[lead:, :lead]
    return core, rows


# ---------------------------------------------------------------------------
# splitting type of an integral involution


def involution_splitting_type(S) -> tuple[int, int, int]:
    """Splitting type (s', p, t') of an integral involution S with S^2 = I.

    s' and t' count the plain fixed and anti-fixed directions, p the glued
    pairs; p is read off from the index of the direct sum of the saturated
    (anti-)fixed sublattices, which must be a power of two.
    """
    S = _as_exact(S)
    n = S.shape[0]
    if S.shape[1] != n:
        raise ValueError("involution matrix must be square")
    I = np.eye(n, dtype=object)
    if not np.all(S @ S == I):
        raise ValueError("matrix must square to the identity")
    plus = kernel_basis(S - I)
    minus = kernel_basis(S + I)
    r_plus = plus.shape[1]
    r_minus = minus.shape[1]
    if r_plus + r_minus != n:
        raise AssertionError("fixed and anti-fixed ranks do not fill the lattice")
    K = np.concatenate([plus, minus], axis=1)
    index = abs(det_int(K))
    p = 0
    rem = index
    while rem % 2 == 0:
        rem //= 2
        p += 1
    if rem != 1:
        raise ValueError("lattice index of the split is not a power of two")
    s_prime = r_plus - p
    t_prime = r_minus - p
    if s_prime < 0 or t_prime < 0 or s_prime + 2 * p + t_prime != n:
        raise AssertionError("splitting census is inconsistent")
    return s_prime, p, t_prime
