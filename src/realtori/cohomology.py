"""Order-two cohomology predicates on the symplectic group.

The involution flips the off-diagonal blocks; an element gamma is a cocycle
datum when gamma tau(gamma) is the identity and a coboundary when it can be
written tau(h) h^-1.  Witnesses are searched over bounded words in the
standard symplectic generators, so existence answers are constructive and
non-existence only means exhaustion of the word bound.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exactlinalg import (
    int_matrix,
    is_symplectic,
    symplectic_form,
    symplectic_inverse,
    unimodular_inverse,
)
from .siegel import sp_act, tau_group

__all__ = [
    "is_cocycle",
    "coboundary_witness",
    "fixed_locus_member",
    "symplectic_generators",
]


def _is_exact(M: np.ndarray) -> bool:
    return M.dtype == object or np.issubdtype(M.dtype, np.integer)


def is_cocycle(gamma) -> bool:
    """Exact test gamma tau(gamma) = identity (tolerance 1e-12 for floats)."""
    M = np.asarray(gamma)
    if not is_symplectic(M):
        raise ValueError("matrix is not symplectic")
    P = M @ tau_group(M)
    I = np.eye(P.shape[0], dtype=int)
    if _is_exact(M):
        return bool(np.all(P == I))
    return float(np.max(np.abs(P - I))) <= 1e-12


# ---------------------------------------------------------------------------
# generator words and the coboundary search


def symplectic_generators(g: int) -> list[np.ndarray]:
    """Small exact generating set: J, translations, elementary dilations."""
    gens: list[np.ndarray] = [symplectic_form(g)]
    n = 2 * g

    def embed_translation(B):
        M = np.eye(n, dtype=object)
        M[:g, g:] = int_matrix(B)
        return M

    def embed_gl(A):
        A = int_matrix(A)
        M = np.zeros((n, n), dtype=object)
        M[:g, :g] = A
        M[g:, g:] = unimodular_inverse(A).T
        return M

    for i in range(g):
        for j in range(i, g):
            B = np.zeros((g, g), dtype=int)
            B[i, j] = 1
            B[j, i] = 1
            gens.append(embed_translation(B))
            gens.append(embed_translation(-B))
    for i in range(g):
        for j in range(g):
            if i != j:
                A = np.eye(g, dtype=int)
                A[i, j] = 1
                gens.append(embed_gl(A))
                A = np.eye(g, dtype=int)
                A[i, j] = -1
                gens.append(embed_gl(A))
    if g >= 1:
        A = -np.eye(g, dtype=int)
        gens.append(embed_gl(A))
    return gens


def _matrix_key(M: np.ndarray) -> bytes:
    return repr([[int(v) for v in row] for row in M]).encode()


# A table costs seconds and tens of MB from word bound 5 on, so only the
# few most recently used ones are kept.
@lru_cache(maxsize=4)
def _witness_table(g: int, bound: int) -> dict[bytes, np.ndarray]:
    """Map tau(h) h^-1 -> h over all generator words of length <= bound."""
    gens = symplectic_generators(g)
    eye = np.eye(2 * g, dtype=object)
    table: dict[bytes, np.ndarray] = {}
    frontier = [eye]
    seen = {_matrix_key(eye)}

    def record(h: np.ndarray) -> None:
        quot = tau_group(h) @ symplectic_inverse(h)
        k = _matrix_key(quot)
        if k not in table:
            table[k] = h

    record(eye)
    for _ in range(bound):
        new_frontier = []
        for h in frontier:
            for gen in gens:
                cand = h @ gen
                k = _matrix_key(cand)
                if k in seen:
                    continue
                seen.add(k)
                if max(abs(int(v)) for v in cand.flat) > 64:
                    continue
                record(cand)
                new_frontier.append(cand)
        frontier = new_frontier
    return table


def coboundary_witness(gamma, bound: int = 4) -> np.ndarray | None:
    """Search h with tau(h) h^-1 = gamma over generator words of length <= bound.

    Returns an exact verified witness or None when the word bound is
    exhausted (which does not refute the coboundary property).
    """
    gamma = int_matrix(gamma)
    if not is_cocycle(gamma):
        raise ValueError("not a cocycle: gamma tau(gamma) differs from the identity")
    g = gamma.shape[0] // 2
    table = _witness_table(g, bound)
    h = table.get(_matrix_key(gamma))
    if h is None:
        return None
    check = tau_group(h) @ symplectic_inverse(h)
    if _matrix_key(check) != _matrix_key(gamma):
        raise AssertionError("witness verification failed")
    return h


def fixed_locus_member(gamma, omega, tol: float = 1e-10) -> bool:
    """True iff gamma . Omega = -conj(Omega) within ``tol``."""
    om = np.asarray(omega, dtype=complex)
    moved = sp_act(gamma, om)
    return float(np.max(np.abs(moved + np.conj(om)))) <= tol
