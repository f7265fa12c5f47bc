"""Per-layer timings of SPD and invertibility checks, reduction (also of forms that take a
descent step), enumeration, congruence-witness search, equivalence of
polarized tori (also of tied pairs at cond 10^6-10^10) and of real ppavs,
exact determinant and inverse, Smith normal form, coboundary witnesses,
theta summation, theta, equiv, distance and degenerate requests and the JSON
decode/encode round trip, and of the CLI end to end (in process) on the
golden batch of ``tests/golden/cli_in.json``.
The JSON round trip is timed on four kinds of payload: real forms, exact
rationals, integer symplectic matrices and half-space points.

Run from the root of a checkout (not part of the tier-1 tests):

    python -m pytest benchmarks --benchmark-json=BENCH_<n>.json

Every input comes from a fixed seed, so two checkouts time the same work.
"Badly conditioned" forms have eigenvalues 1 and 1e6 and are moved off the
reduced domain by a unimodular matrix with entries up to 3, as in
``tests/golden/make_reduce.py``; the stress row of ``test_minkowski_reduce``
takes eigenvalues 1 and 1e12 to 1e16.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from realtori import cli, geodesics, spdcone
from realtori.cohomology import coboundary_witness
from realtori.exactlinalg import (
    det_int,
    random_unimodular,
    smith_normal_form,
    symplectic_inverse,
    unimodular_inverse,
)
from realtori.moduli import (
    Verdict,
    congruence_witnesses,
    polarized_tori_equivalent,
    real_ppav_equivalent,
)
from realtori.siegel import random_symplectic, tau_group
from realtori.spdcone import minkowski_reduce, quadratic_short_vectors, require_spd
from realtori.theta import canonical_line_bundle_data, theta_eval


def _form(g: int, cond: float, seed: int) -> np.ndarray:
    """An SPD form with condition number ``cond`` before a unimodular move."""
    rng = np.random.default_rng(seed)
    eig = np.exp(rng.uniform(0.0, np.log(cond), size=g))
    eig[0], eig[-1] = 1.0, cond
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    U = random_unimodular(g, rng, max_entry=3).astype(float)
    Y = U @ (Q * eig) @ Q.T @ U.T
    return 0.5 * (Y + Y.T)


CONDITIONING = {"well": 10.0, "bad": 1e6}
# condition numbers of the stress row, before the unimodular move
STRESS = 10.0 ** np.linspace(12.0, 16.0, 10)

# integer forms with 12, 48 and 32 automorphisms, all within the default
# witness cap of 64, so the search runs to completion
TIED = {
    2: [[2, 1], [1, 2]],
    3: [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
    4: [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
}


@pytest.mark.parametrize("cond", sorted(CONDITIONING) + ["stress"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_minkowski_reduce(benchmark, g, cond):
    """10 forms (seeds 0-9) at cond 10 or 1e6, or, in the stress row, at
    cond 1e12 to 1e16, of which those that pass validation are timed."""
    if cond == "stress":
        forms = [Y for seed, c in enumerate(STRESS) if _validated(Y := _form(g, c, seed))]
    else:
        forms = [_form(g, CONDITIONING[cond], seed) for seed in range(10)]
    assert forms
    benchmark(lambda: [minkowski_reduce(Y) for Y in forms])


def _validated(Y: np.ndarray) -> bool:
    try:
        require_spd(Y)
    except ValueError:
        return False
    return True


def _enumerations(forms) -> int:
    """Enumeration boxes sized while ``minkowski_reduce`` runs on ``forms``."""
    with mock.patch.object(spdcone._Ellipsoid, "box", autospec=True,
                           side_effect=spdcone._Ellipsoid.box) as box:
        for Y in forms:
            minkowski_reduce(Y)
    return box.call_count


@pytest.mark.parametrize("g", [2, 3, 4])
def test_minkowski_reduce_tied(benchmark, g):
    """10 copies of the tied form, each moved by a unimodular matrix and
    scaled by a real factor in [0.5, 2] (ties at rounding level, decided
    exactly on the dyadic form); none is enumerated."""
    rng = np.random.default_rng(700 + g)
    G = np.array(TIED[g], dtype=float)
    forms = []
    for _ in range(10):
        U = random_unimodular(g, rng, max_entry=3).astype(float)
        forms.append((U @ G @ U.T) * float(rng.uniform(0.5, 2.0)))
    assert _enumerations(forms) == 0
    benchmark(lambda: [minkowski_reduce(Y) for Y in forms])


@pytest.mark.parametrize("g", [3, 4])
def test_minkowski_reduce_descent_step(benchmark, g):
    """The first 10 badly conditioned forms (seeds from 1300) that still fail
    the reduction certificate after size reduction, so every call takes at
    least one descent step.  Size reduction settles every g = 2 form."""
    forms, seed = [], 1300
    while len(forms) < 10:
        Y = require_spd(_form(g, CONDITIONING["bad"], seed))
        N, den = spdcone._dyadic(Y.tolist())
        if spdcone._failed(spdcone._size_reduce(N)[0], den):
            forms.append(Y)
        seed += 1
    assert _enumerations(forms) == 0
    benchmark(lambda: [minkowski_reduce(Y) for Y in forms])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_quadratic_short_vectors(benchmark, g):
    R, _ = minkowski_reduce(_form(g, 10.0, 100 + g))
    bound = 2.0 * float(np.max(np.diag(R)))
    vecs = benchmark(quadratic_short_vectors, R, bound)
    assert vecs


# shear per dimension: boxes of 290,037, 390,663 and 41,019,615 points in the
# given basis at bound 2, walked in a reduced basis of 3^g points
SKEW = {4: 4, 5: 2, 6: 2}


@pytest.mark.parametrize("g", sorted(SKEW))
def test_quadratic_short_vectors_skewed(benchmark, g):
    """Z^g in the basis sheared by ``SKEW[g]`` above the diagonal, to bound
    2: the enumerator walks the box of a reduced basis, Minkowski-reduced at
    g = 4 and LLL-reduced above."""
    U = _shear(g, SKEW[g])
    vecs = benchmark(quadratic_short_vectors, U @ U.T, 2.0)
    assert len(vecs) == 2 * g * g


@pytest.mark.parametrize("g", [2, 3, 4])
def test_congruence_witnesses_automorphisms(benchmark, g):
    R = np.array(TIED[g], dtype=float)
    witnesses, complete = benchmark(congruence_witnesses, R, R)
    assert complete and witnesses


@pytest.mark.parametrize("g", [2, 3, 4])
def test_congruence_witnesses_generic(benchmark, g):
    R1, _ = minkowski_reduce(_form(g, 10.0, 200 + g))
    R2, _ = minkowski_reduce(_form(g, 10.0, 300 + g))
    R2 *= (np.linalg.det(R1) / np.linalg.det(R2)) ** (1.0 / g)
    benchmark(congruence_witnesses, R1, R2)


def _equivalence_pairs(g: int, seed: int) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Eight pairs of forms with the same determinant: integer and scaled by a
    real factor in [0.5, 2], each twice equivalent (moved by a unimodular
    matrix) and twice not (diag(1, ..., 1, 4) against diag(1, ..., 2, 2),
    both moved)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for scaled in (False, True):
        for equivalent in (True, True, False, False):
            if equivalent:
                M = rng.integers(-2, 3, size=(g, g))
                Z1 = M @ M.T + np.diag(rng.integers(1, 4, size=g))
                U = random_unimodular(g, rng, max_entry=2).astype(np.int64)
                Z2 = U @ Z1 @ U.T
            else:
                moved = []
                for d in ([1] * (g - 1) + [4], [1] * (g - 2) + [2, 2]):
                    U = random_unimodular(g, rng, max_entry=2).astype(np.int64)
                    moved.append(U @ np.diag(d) @ U.T)
                Z1, Z2 = moved
            s = float(rng.uniform(0.5, 2.0)) if scaled else 1.0
            pairs.append((Z1.astype(float) * s, Z2.astype(float) * s, equivalent))
    return pairs


@pytest.mark.parametrize("g", [2, 3, 4])
def test_polarized_tori_equivalent(benchmark, g):
    pairs = _equivalence_pairs(g, 1100 + g)
    verdicts = benchmark(lambda: [polarized_tori_equivalent(Y1, Y2).verdict
                                  for Y1, Y2, _ in pairs])
    assert [v is Verdict.EQUIVALENT for v in verdicts] == [e for _, _, e in pairs]


def test_polarized_tori_equivalent_tied_ill_conditioned(benchmark):
    """Five tied pairs Y1 = M + M (block sum), M = Q diag(1, c) tQ with
    c = 10^6, ..., 10^10, against Y2 = U Y1 tU for a unimodular U with
    entries up to 3: the reduced forms tie, so the minima test or the witness
    search decides, at the search tolerance that covers the rounding of the
    reduced forms."""
    rng = np.random.default_rng(1500)
    pairs = []
    for e in range(6, 11):
        Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        M = (Q * [1.0, 10.0 ** e]) @ Q.T
        Y1 = np.kron(np.eye(2), 0.5 * (M + M.T))
        U = random_unimodular(4, rng, max_entry=3).astype(float)
        pairs.append((Y1, U @ Y1 @ U.T))
    results = benchmark(lambda: [polarized_tori_equivalent(Y1, Y2) for Y1, Y2 in pairs])
    for (Y1, Y2), res in zip(pairs, results):
        if res.verdict is Verdict.EQUIVALENT:
            A = res.witness.astype(float)
            assert np.max(np.abs(A @ Y1 @ A.T - Y2)) <= 1e-9 * np.max(np.abs(Y2))


def _ppav_points(g: int) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """The pairs of ``test_polarized_tori_equivalent`` as imaginary parts,
    with real parts M / 2 and A M tA / 2 + K for a random symmetric 0-1
    matrix M, an even symmetric K and the unimodular A that moves the
    imaginary part (A = I for the inequivalent pairs)."""
    rng = np.random.default_rng(1200 + g)
    points = []
    for Y1, Y2, equivalent in _equivalence_pairs(g, 1100 + g):
        M = np.triu(rng.integers(0, 2, size=(g, g)))
        M = M + np.triu(M, 1).T
        A = np.eye(g)
        if equivalent:
            A = polarized_tori_equivalent(Y1, Y2).witness.astype(float)
        K = np.triu(rng.integers(-1, 2, size=(g, g)))
        X2 = 0.5 * (A @ M @ A.T) + K + np.triu(K, 1).T
        points.append((0.5 * M + 1j * Y1, X2 + 1j * Y2, equivalent))
    return points


@pytest.mark.parametrize("g", [2, 3, 4])
def test_real_ppav_equivalent(benchmark, g):
    """``real_ppav_equivalent`` on the pairs of ``_ppav_points``."""
    points = _ppav_points(g)
    verdicts = benchmark(lambda: [real_ppav_equivalent(om1, om2).verdict
                                  for om1, om2, _ in points])
    assert [v is Verdict.EQUIVALENT for v in verdicts] == [e for _, _, e in points]


@pytest.mark.parametrize("g", [2, 4, 6])
def test_unimodular_inverse(benchmark, g):
    rng = np.random.default_rng(400 + g)
    mats = [random_unimodular(g, rng, max_entry=50, steps=40) for _ in range(10)]
    benchmark(lambda: [unimodular_inverse(A) for A in mats])


@pytest.mark.parametrize("g", [2, 4, 6])
def test_det_int(benchmark, g):
    rng = np.random.default_rng(450 + g)
    mats = [rng.integers(-9, 10, size=(g, g)) for _ in range(10)]
    benchmark(lambda: [det_int(M) for M in mats])


@pytest.mark.parametrize("g", [2, 4, 6])
def test_smith_normal_form(benchmark, g):
    rng = np.random.default_rng(500 + g)
    mats = [rng.integers(-9, 10, size=(g, g)) for _ in range(10)]
    benchmark(lambda: [smith_normal_form(M) for M in mats])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_coboundary_witness(benchmark, g):
    rng = np.random.default_rng(600 + g)
    words = [random_symplectic(g, rng, length=6) for _ in range(10)]
    gammas = [tau_group(h) @ symplectic_inverse(h) for h in words]
    witnesses = benchmark(lambda: [coboundary_witness(gamma) for gamma in gammas])
    assert all(h is not None for h in witnesses)


def _shear(g: int, k: int) -> np.ndarray:
    U = np.eye(g)
    for i in range(g - 1):
        U[i, i + 1] = k
    return U


@pytest.mark.parametrize("shape", ["well", "sheared"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_theta_eval(benchmark, g, shape):
    """Canonical-bundle theta at 5 arguments in the fundamental cell: a form
    with eigenvalues in [1, 2], or 1.1 I in the basis sheared by 2 above the
    diagonal (the same lattice, skewed).  Every well-conditioned form and the
    sheared one at g = 2, 3 is summed in the basis given; the sheared boxes
    at g = 4 hold more than 4,096 points there, so the enumerator walks the
    smaller box of the Minkowski-reduced basis."""
    rng = np.random.default_rng(800 + g)
    if shape == "well":
        Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        Y = (Q * rng.uniform(1.0, 2.0, size=g)) @ Q.T
    else:
        U = _shear(g, 2)
        Y = U @ (1.1 * np.eye(g)) @ U.T
    spec = canonical_line_bundle_data(0.5 * (Y + Y.T)).spec
    args = [Y @ rng.uniform(-0.45, 0.45, size=g) for _ in range(5)]
    benchmark(lambda: [theta_eval(spec, v) for v in args])


@pytest.mark.parametrize("shape", ["well", "sheared"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_theta_eval_many_arguments(benchmark, g, shape):
    """The forms of ``test_theta_eval`` at 64 arguments in the fundamental
    cell, on one spec: the per-spec work is done once, so this times what
    each further argument costs."""
    rng = np.random.default_rng(850 + g)
    if shape == "well":
        Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        Y = (Q * rng.uniform(1.0, 2.0, size=g)) @ Q.T
    else:
        U = _shear(g, 2)
        Y = U @ (1.1 * np.eye(g)) @ U.T
    spec = canonical_line_bundle_data(0.5 * (Y + Y.T)).spec
    args = [Y @ rng.uniform(-0.45, 0.45, size=g) for _ in range(64)]
    benchmark(lambda: [theta_eval(spec, v) for v in args])


def test_theta_eval_large_box(benchmark):
    """As ``test_theta_eval``, sheared by 5 at g = 3: the boxes of the given
    basis hold 47,397-91,935 points, far above the 4,096 where the enumerator
    compares them with the box of the Minkowski-reduced basis, and the
    reduced boxes a few hundred."""
    rng = np.random.default_rng(803)
    Y = _shear(3, 5) @ (1.1 * np.eye(3)) @ _shear(3, 5).T
    spec = canonical_line_bundle_data(0.5 * (Y + Y.T)).spec
    args = [Y @ rng.uniform(-0.45, 0.45, size=3) for _ in range(5)]
    benchmark(lambda: [theta_eval(spec, v) for v in args])


@pytest.mark.parametrize("spec", ["canonical", "explicit"])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_theta_request(benchmark, g, spec):
    """Five ``theta`` requests through ``cli.parse_request`` -> ``cli.dispatch``
    -> ``cli.canonical_json``: a form with eigenvalues in [1, 2] given as the
    canonical ``Y``, or as an explicit ``Pi``, ``B``, ``rho`` with the same
    Gram form, at arguments in the fundamental cell.  The two rows differ by
    the cost of building the spec (the canonical bundle or the ``ThetaSpec``)."""
    rng = np.random.default_rng(900 + g)
    Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    Y = (Q * rng.uniform(1.0, 2.0, size=g)) @ Q.T
    Y = 0.5 * (Y + Y.T)
    texts = []
    for _ in range(5):
        v = Y @ rng.uniform(-0.45, 0.45, size=g)
        if spec == "canonical":
            payload = {"Y": Y.tolist()}
        else:
            payload = {"Pi": Y.tolist(), "B": np.linalg.inv(Y).tolist(),
                       "rho": [{"re": 1.0, "im": 0.0}] * g}
        texts.append(json.dumps({"cmd": "theta", **payload, "v": v.tolist()}))

    def run():
        return [cli.canonical_json(cli.dispatch(cli.parse_request(text))[0]) for text in texts]

    benchmark(run)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -30], ids=["unit", "scaled"])
@pytest.mark.parametrize("kind", ["Y", "Omega"])
@pytest.mark.parametrize("g", [2, 3, 4])
def test_equiv_request(benchmark, g, kind, scale):
    """Eight ``equiv`` requests through ``cli.parse_request`` ->
    ``cli.dispatch`` -> ``cli.canonical_json``: the integer and scaled pairs
    of ``test_polarized_tori_equivalent`` as ``Y1``, ``Y2``, or the points of
    ``test_real_ppav_equivalent`` as ``Omega1``, ``Omega2``.  Each form is
    decoded, proved definite and reduced once per request.  At ``scale``
    2^-30 the forms (the imaginary parts) are multiplied by 2^-30, so the
    integer pairs take the float path, which answers as at scale 1."""
    if kind == "Y":
        pairs = [((scale * Y1).tolist(), (scale * Y2).tolist(), e)
                 for Y1, Y2, e in _equivalence_pairs(g, 1100 + g)]
    else:
        pairs = [({"X": om1.real.tolist(), "Y": (scale * om1.imag).tolist()},
                  {"X": om2.real.tolist(), "Y": (scale * om2.imag).tolist()}, e)
                 for om1, om2, e in _ppav_points(g)]
    texts = [json.dumps({"cmd": "equiv", kind + "1": a, kind + "2": b}) for a, b, _ in pairs]

    def run():
        return [cli.canonical_json(cli.dispatch(cli.parse_request(text))[0]) for text in texts]

    answers = benchmark(run)
    assert [json.loads(a)["verdict"] == "EQUIVALENT" for a in answers] == [e for _, _, e in pairs]


def _answer(text: str) -> str:
    """One request through ``cli.parse_request`` -> ``cli.dispatch`` ->
    ``cli.canonical_json``; the message of a refused request."""
    try:
        return cli.canonical_json(cli.dispatch(cli.parse_request(text))[0])
    except cli.InputError as exc:
        return str(exc)


# a 2 x 2 request whose path length settles at 16 nodes, and a 1 x 1 one whose
# length (about 3e13) never meets the absolute tolerance: refused at 256 nodes
DISTANCE = {
    "settles": ('{"cmd":"distance","Y0":[[2,1],[1,2]],"V0":[[0,1]],'
                '"Y1":[[1,0],[0,3]],"V1":[[1,0]]}', 16),
    "refused": ('{"cmd":"distance","Y0":[[1]],"V0":[[0]],"Y1":[[1e-30]],"V1":[[1]]}', 256),
}


@pytest.mark.parametrize("case", sorted(DISTANCE))
def test_distance_request(benchmark, case):
    text, nodes = DISTANCE[case]
    with mock.patch.object(geodesics, "_gauss_legendre_rule",
                           side_effect=geodesics._gauss_legendre_rule) as rule:
        _answer(text)
    assert max(call.args[0] for call in rule.call_args_list) == nodes
    answer = benchmark(_answer, text)
    assert ("did not settle" in answer) == (case == "refused")


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_degenerate_request(benchmark, kind):
    """One ``degenerate`` request as in ``test_distance_request``: four samples
    at g = 3 of tW diag(d) W with d = (1.2 + xi, 1.7 + xi, 1.4 / xi^2), a
    half-space family with a fixed real part for ``complex``; its last index
    diverges."""
    rng = np.random.default_rng(1400)
    W = np.eye(3) + np.triu(rng.uniform(-0.5, 0.5, size=(3, 3)), 1)
    X = np.round(rng.uniform(-0.5, 0.5, size=(3, 3)), 2)
    X = (X + X.T).tolist()
    params = [0.1, 0.01, 0.001, 0.0001]
    mats = [(W.T @ np.diag([1.2 + xi, 1.7 + xi, 1.4 / xi ** 2]) @ W).tolist() for xi in params]
    if kind == "complex":
        mats = [{"X": X, "Y": Y} for Y in mats]
    text = json.dumps({"cmd": "degenerate", "complex": kind == "complex",
                       "params": params, "matrices": mats})
    answer = benchmark(_answer, text)
    assert json.loads(answer)["t"] == 1


@pytest.mark.parametrize("g", [2, 3, 4])
def test_require_spd(benchmark, g):
    """Validate 10 well-conditioned forms: symmetry and scale checks and the
    proof of definiteness, one Cholesky factorization of the form with its
    diagonal shrunk, each."""
    forms = [_form(g, 10.0, 1000 + seed) for seed in range(10)]
    benchmark(lambda: [require_spd(Y) for Y in forms])


@pytest.mark.parametrize("g", [2, 3, 4])
def test_invertible(benchmark, g):
    """Check 10 well-conditioned matrices for invertibility: finiteness and
    the determinant of the columns scaled to unit maximum each."""
    matrices = [_form(g, 10.0, 1000 + seed) for seed in range(10)]
    benchmark(lambda: [spdcone._invertible(A, "matrix") for A in matrices])


def _round_trip_request(kind: str, seed: int) -> dict:
    """One request of ``test_json_round_trip``: a g = 4 ``reduce`` form, an
    ``ext-normal`` datum of three 3 x 3 "p/q" matrices, an 8 x 8 integer
    symplectic ``coboundary`` gamma, or a g = 3 half-space point."""
    rng = np.random.default_rng(1500 + seed)
    if kind == "real":
        return {"cmd": "reduce", "Y": _form(4, 10.0, seed).tolist()}
    if kind == "rational":
        def fractions():
            p, q = rng.integers(-9, 10, size=(3, 3)), rng.integers(1, 10, size=(3, 3))
            return [[f"{a}/{b}" for a, b in zip(*rows)] for rows in zip(p.tolist(), q.tolist())]
        return {"cmd": "ext-normal", "Pi1": fractions(), "Pi2": fractions(),
                "sigma": fractions()}
    if kind == "integer":
        return {"cmd": "coboundary", "gamma": random_symplectic(4, rng, length=6).tolist()}
    X = rng.uniform(-0.5, 0.5, size=(3, 3))
    return {"cmd": "act", "kind": "sp", "M": np.eye(6).tolist(),
            "Omega": {"X": (X + X.T).tolist(), "Y": _form(3, 10.0, seed).tolist()}}


# each request kind's fields, decoded and encoded back as the handlers do
ROUND_TRIP = {
    "real": lambda p: {"R": cli.encode_matrix(cli.decode_matrix(p["Y"], "real", square=True))},
    "rational": lambda p: {key: cli.encode_matrix(cli.decode_matrix(p[key], "rational"))
                           for key in ("Pi1", "Pi2", "sigma")},
    "integer": lambda p: {"witness": cli.encode_matrix(
        cli.decode_matrix(p["gamma"], "int", square=True))},
    "siegel": lambda p: {"Omega": cli.encode_siegel(cli.decode_siegel(p["Omega"]))},
}


@pytest.mark.parametrize("kind", list(ROUND_TRIP))
def test_json_round_trip(benchmark, kind):
    """Decode 50 requests of one kind and encode their matrices back."""
    texts = [json.dumps(_round_trip_request(kind, seed)) for seed in range(50)]

    def round_trip():
        out = []
        for text in texts:
            _, payload = cli.parse_request(text)
            out.append(cli.canonical_json({"status": "ok", **ROUND_TRIP[kind](payload)}))
        return out

    benchmark(round_trip)


def test_cli_golden_batch(benchmark, tmp_path):
    """``cli.main`` in process on one batch of every golden CLI request that is
    a JSON object run without arguments (all 22 commands, good and bad
    input): decode, dispatch, encode and file I/O, without process start."""
    golden = Path(__file__).resolve().parents[1] / "tests" / "golden"
    texts = []
    for case in json.loads((golden / "cli_in.json").read_text(encoding="utf-8")):
        try:
            request = json.loads(case["input"])
        except ValueError:
            continue
        if isinstance(request, dict) and not case["args"]:
            texts.append(case["input"])
    src, dst = tmp_path / "batch.json", tmp_path / "out.json"
    src.write_text("[" + ",".join(texts) + "]", encoding="utf-8")
    code = benchmark(cli.main, ["--input", str(src), "--output", str(dst)])
    assert code == 2  # the batch holds bad requests
    assert len(json.loads(dst.read_text(encoding="utf-8"))) == len(texts)
