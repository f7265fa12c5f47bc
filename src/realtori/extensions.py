"""Extensions of polarized tori through period matrices.

An extension of tori with period matrices Pi1, Pi2 is recorded by the upper
off-diagonal block sigma of the big period matrix ((I,Pi1), sigma; 0, (I,Pi2)).
Addition is sigma-wise.  Two data are equivalent iff their normal forms
differ by an element of the period lattice (I,Pi1) Z (Pi2; I); that
membership is decided exactly, so equivalence takes integer or rational
inputs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .exactlinalg import int_matrix, integer_solve
from .moduli import Verdict

# largest entry difference of two float period matrices taken as equal
_SAME_TORI_TOL = 1e-12

__all__ = [
    "ExtensionDatum",
    "ext_normal_form",
    "ext_add",
    "ext_equivalent",
]


def _is_exact_array(a: np.ndarray) -> bool:
    return a.dtype == object and all(isinstance(v, (int, Fraction)) for v in a.flat)


@dataclass(frozen=True)
class ExtensionDatum:
    """Extension block sigma (g1 x 2 g2) over fixed period matrices Pi1, Pi2.

    Exact workflows store Pi and sigma entries as ints/Fractions; numeric
    workflows use floats/complex.  The two are not mixed silently.
    """

    Pi1: np.ndarray
    Pi2: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        Pi1 = _as_matrix(self.Pi1)
        Pi2 = _as_matrix(self.Pi2)
        sigma = _as_matrix(self.sigma)
        g1, g2 = Pi1.shape[0], Pi2.shape[0]
        if Pi1.shape != (g1, g1) or Pi2.shape != (g2, g2):
            raise ValueError("period matrices must be square")
        if sigma.shape != (g1, 2 * g2):
            raise ValueError("sigma must have shape g1 x 2*g2")
        object.__setattr__(self, "Pi1", Pi1)
        object.__setattr__(self, "Pi2", Pi2)
        object.__setattr__(self, "sigma", sigma)

    @property
    def g1(self) -> int:
        return self.Pi1.shape[0]

    @property
    def g2(self) -> int:
        return self.Pi2.shape[0]

    def is_exact(self) -> bool:
        return all(_is_exact_array(a) for a in (self.Pi1, self.Pi2, self.sigma))

    def same_tori(self, other: "ExtensionDatum") -> bool:
        if self.g1 != other.g1 or self.g2 != other.g2:
            return False
        if self.is_exact() and other.is_exact():
            return bool(np.array_equal(self.Pi1, other.Pi1)
                        and np.array_equal(self.Pi2, other.Pi2))
        a = np.max(np.abs(_to_complex(self.Pi1) - _to_complex(other.Pi1)))
        b = np.max(np.abs(_to_complex(self.Pi2) - _to_complex(other.Pi2)))
        return float(max(a, b)) <= _SAME_TORI_TOL


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError("matrix input must be two-dimensional")
    return arr


def _to_complex(a: np.ndarray) -> np.ndarray:
    return np.array([[complex(v) for v in row] for row in a], dtype=complex)


def ext_normal_form(e: ExtensionDatum) -> np.ndarray:
    """Representative block sigma_2 - sigma_1 Pi2 of the class of e."""
    g2 = e.g2
    s1 = e.sigma[:, :g2]
    s2 = e.sigma[:, g2:]
    return s2 - s1 @ e.Pi2


def ext_add(e: ExtensionDatum, f: ExtensionDatum) -> ExtensionDatum:
    if not e.same_tori(f):
        raise ValueError("extensions live over different tori")
    return ExtensionDatum(Pi1=e.Pi1, Pi2=e.Pi2, sigma=e.sigma + f.sigma)


def _lattice_generators(e: ExtensionDatum) -> list[np.ndarray]:
    """Generators (I,Pi1) E_pq (Pi2; I) of the period lattice in normal form,
    with p running over the 2 g1 columns of (I,Pi1) and q, inner, over the
    2 g2 rows of (Pi2; I)."""
    left = np.concatenate([np.eye(e.g1, dtype=object), e.Pi1], axis=1)
    right = np.concatenate([e.Pi2, np.eye(e.g2, dtype=object)], axis=0)
    return [np.outer(left[:, p], right[q]) for p in range(2 * e.g1) for q in range(2 * e.g2)]


def ext_equivalent(e: ExtensionDatum, f: ExtensionDatum):
    """Equivalence of two extension data over the same tori.

    The inputs must be exact (integer/Fraction entries).  The difference of
    normal forms is tested for exact membership in the period lattice, which
    is decisive: EQUIVALENT comes with the integer coefficient matrix M
    (2 g1 x 2 g2) of the generators, INEQUIVALENT with None.  Float inputs
    raise ValueError, since for real periods the generators need not span a
    lattice and no finite search certifies membership.
    """
    if not (e.is_exact() and f.is_exact()):
        raise ValueError("extension equivalence needs exact (integer or rational) inputs")
    if not e.same_tori(f):
        raise ValueError("extensions live over different tori")
    diff = ext_normal_form(e) - ext_normal_form(f)
    # membership: solve the integer system  G m = c  with denominators cleared
    columns = [[Fraction(v) for v in M.flat] for M in [diff, *_lattice_generators(e)]]
    scale = lcm(*(x.denominator for col in columns for x in col))
    c, *gens = [[int(x * scale) for x in col] for col in columns]
    m = integer_solve(int_matrix(gens).T, c)
    if m is None:
        return Verdict.INEQUIVALENT, None
    return Verdict.EQUIVALENT, m.reshape(2 * e.g1, 2 * e.g2)
