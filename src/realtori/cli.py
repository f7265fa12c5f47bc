"""Command-line front end: every operation on JSON input, deterministic output.

All commands are thin adapters around the library; the only logic here is
serialization.  Matrices are nested arrays (row-major), complex numbers are
{"re":..., "im":...}, exact rationals are "p/q" strings, half-space points
are {"X":..., "Y":...}.  Exit codes: 0 ok, 1 internal error, 2 bad input,
3 undecided verdict.  Output bytes are a pure function of the input: fixed
key order and 17-significant-digit floats.

A JSON array of requests is a batch: the output is an array with one entry
per item, in order.  An item that fails gets its own entry
{"status":"error","error":"<msg>"} ("internal: <msg>" for an internal error)
and the other items still run.  The batch exits with its most severe code,
ranked 1 > 2 > 3 > 0.  Input that is not valid JSON gives a single error
object and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import (
    cohomology,
    degenerations,
    exactlinalg,
    extensions,
    geodesics,
    moduli,
    siegel,
    spdcone,
    theta,
)
from .moduli import Verdict

__all__ = ["main", "parse_request", "dispatch", "JobRequest"]


# request size limits: the invariant list has g + 1 + g//2 entries, and the
# coboundary witness is exact integer arithmetic on 2g x 2g matrices, held
# to the g <= 4 of the other commands
_MAX_INVARIANTS_G = 1000
_MAX_COBOUNDARY_G = 4


class InputError(Exception):
    pass


class UndecidedError(Exception):
    def __init__(self, payload):
        self.payload = payload


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in output")
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    out: list[str] = []

    def emit(o):
        if o is None:
            out.append("null")
        elif isinstance(o, bool):
            out.append("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            out.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.append(_fmt_float(float(o)))
        elif isinstance(o, (complex, np.complexfloating)):
            emit({"re": float(o.real), "im": float(o.imag)})
        elif isinstance(o, Fraction):
            out.append(json.dumps(f"{o.numerator}/{o.denominator}"))
        elif isinstance(o, str):
            out.append(json.dumps(o))
        elif isinstance(o, dict):
            out.append("{")
            for i, (k, v) in enumerate(o.items()):
                if i:
                    out.append(",")
                out.append(json.dumps(str(k)))
                out.append(":")
                emit(v)
            out.append("}")
        elif isinstance(o, (list, tuple, np.ndarray)):
            seq = o.tolist() if isinstance(o, np.ndarray) else list(o)
            out.append("[")
            for i, v in enumerate(seq):
                if i:
                    out.append(",")
                emit(v)
            out.append("]")
        else:
            raise ValueError(f"cannot serialize {type(o).__name__}")

    emit(obj)
    return "".join(out)


# ---------------------------------------------------------------------------
# decoding


def _need(payload: dict, key: str):
    if key not in payload:
        raise InputError(f"missing field {key!r}")
    return payload[key]


def _decode_scalar(v, kind: str):
    try:
        if kind == "int":
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
                raise InputError(f"expected integer, got {v!r}")
            return int(v)
        if kind == "real":
            if isinstance(v, str):
                f = Fraction(v)
                return float(f)
            return float(v)
        if kind == "complex":
            if isinstance(v, dict):
                return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
            return complex(float(v))
        if kind == "rational":
            if isinstance(v, str):
                return Fraction(v)
            if isinstance(v, bool):
                raise InputError("boolean is not a rational")
            if isinstance(v, int):
                return Fraction(v)
            raise InputError(f"expected rational string, got {v!r}")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad {kind} value {v!r}: {exc}") from exc
    raise InputError(f"unknown scalar kind {kind}")


def decode_matrix(obj, kind: str = "real", square: bool | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be a nonempty nested array")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise InputError("matrix rows must be nonempty with equal length")
    rows = [[_decode_scalar(v, kind) for v in r] for r in obj]
    if square and len(rows) != width:
        raise InputError("matrix must be square")
    if kind == "int":
        return exactlinalg.int_matrix(rows)
    if kind == "rational":
        return exactlinalg.rat_matrix(rows)
    dtype = complex if kind == "complex" else float
    return np.array(rows, dtype=dtype)


def decode_vector(obj, kind: str = "real") -> np.ndarray:
    if not isinstance(obj, list) or any(isinstance(v, list) for v in obj):
        raise InputError("vector must be a flat array")
    vals = [_decode_scalar(v, kind) for v in obj]
    if kind == "int":
        return np.array([int(v) for v in vals], dtype=object)
    return np.array(vals, dtype=complex if kind == "complex" else float)


def decode_siegel(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "X" not in obj or "Y" not in obj:
        raise InputError('half-space point must be {"X":..., "Y":...}')
    X = decode_matrix(obj["X"], "real", square=True)
    Y = decode_matrix(obj["Y"], "real", square=True)
    return X + 1j * Y


def encode_matrix(M) -> list:
    M = np.asarray(M)
    out = []
    for row in M:
        r = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                r.append(int(v))
            elif isinstance(v, Fraction):
                r.append(v)
            elif isinstance(v, (complex, np.complexfloating)) and not isinstance(v, (float, np.floating)):
                r.append(complex(v))
            else:
                r.append(float(v))
        out.append(r)
    return out


def encode_siegel(om: np.ndarray) -> dict:
    return {"X": encode_matrix(om.real), "Y": encode_matrix(om.imag)}


def _maybe_exact_matrix(obj) -> np.ndarray:
    """Rational entries (strings) select the exact path; else complex."""
    flat = [v for row in obj for v in row] if isinstance(obj, list) else []
    if any(isinstance(v, str) for v in flat):
        return decode_matrix(obj, "rational")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           and float(v) == int(v) for v in flat):
        return decode_matrix(obj, "rational")
    return decode_matrix(obj, "complex")


# ---------------------------------------------------------------------------
# request parsing


class JobRequest:
    def __init__(self, cmd: str, payload: dict, options: dict):
        self.cmd = cmd
        self.payload = payload
        self.options = options


def _decode_json(text: str):
    # JSONDecodeError is a ValueError; so is an integer literal longer than
    # the interpreter's digit limit.  Nesting deeper than the recursion limit
    # raises RecursionError.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def parse_request(text: str, cmd_override: str | None = None,
                  options: dict | None = None) -> JobRequest | list[JobRequest]:
    data = _decode_json(text)
    options = dict(options or {})
    if isinstance(data, list):
        return [_single_request(item, cmd_override, options) for item in data]
    return _single_request(data, cmd_override, options)


def _single_request(data, cmd_override, options) -> JobRequest:
    if not isinstance(data, dict):
        raise InputError("request payload must be a JSON object")
    payload = dict(data)
    cmd = payload.pop("cmd", None)
    if cmd_override is not None:
        cmd = cmd_override
    if not isinstance(cmd, str) or cmd not in COMMANDS:
        raise InputError(f"unknown or missing command {cmd!r}")
    opts = dict(options)
    for key in ("tol", "bound", "eps", "g"):
        if key in payload:
            opts.setdefault(key, payload.pop(key))
    return JobRequest(cmd=cmd, payload=payload, options=opts)


def _opt_float(req: JobRequest, key: str, default: float) -> float:
    v = req.options.get(key)
    if v is None:
        return default
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise InputError(f"option {key} must be a number") from exc


def _opt_int(req: JobRequest, key: str, default: int) -> int:
    v = req.options.get(key)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
        raise InputError(f"option {key} must be an integer")
    return int(v)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_reduce(req: JobRequest) -> dict:
    Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
    R, A = spdcone.minkowski_reduce(Y)
    return {"status": "ok", "R": encode_matrix(R), "A": encode_matrix(A)}


def _cmd_equiv(req: JobRequest) -> dict:
    tol = _opt_float(req, "tol", 1e-9)
    if "Y1" in req.payload:
        Y1 = decode_matrix(_need(req.payload, "Y1"), "real", square=True)
        Y2 = decode_matrix(_need(req.payload, "Y2"), "real", square=True)
        res = moduli.polarized_tori_equivalent(Y1, Y2, tol=tol)
    else:
        om1 = decode_siegel(_need(req.payload, "Omega1"))
        om2 = decode_siegel(_need(req.payload, "Omega2"))
        res = moduli.real_ppav_equivalent(om1, om2, bound=_opt_int(req, "bound", 200_000),
                                          tol=tol)
    out = {"status": "ok", "verdict": res.verdict.value, "tol": tol}
    if res.witness is not None:
        out["A"] = encode_matrix(res.witness)
    if res.detail:
        out["detail"] = res.detail
    if res.verdict is Verdict.UNDECIDED:
        out["status"] = "undecided"
        raise UndecidedError(out)
    return out


def _cmd_classify_mod2(req: JobRequest) -> dict:
    N = decode_matrix(_need(req.payload, "N"), "int", square=True)
    S, A = moduli.mod2_standard_form(np.array([[int(v) % 2 for v in row] for row in N]))
    inv = moduli.mod2_invariants(np.array([[int(v) % 2 for v in row] for row in N]))
    return {
        "status": "ok",
        "lambda": inv.lam,
        "i": inv.i,
        "form": "II" if inv.i == 1 else "I",
        "S": encode_matrix(S.astype(int)),
        "A": encode_matrix(A.astype(int)),
    }


def _cmd_invariants(req: JobRequest) -> dict:
    g = _opt_int(req, "g", 0)
    if not 1 <= g <= _MAX_INVARIANTS_G:
        raise InputError(f"field 'g' must be an integer in 1..{_MAX_INVARIANTS_G}")
    invs = moduli.valid_invariants(g)
    return {
        "status": "ok",
        "count": len(invs),
        "invariants": [[iv.lam, iv.i] for iv in invs],
    }


def _cmd_sigma(req: JobRequest) -> dict:
    M = decode_matrix(_need(req.payload, "M"), "int", square=True)
    S = moduli.sigma_M_matrix(M)
    out = {"status": "ok", "Sigma": encode_matrix(S)}
    if "Y" in req.payload:
        Y = decode_matrix(req.payload["Y"], "real", square=True)
        out["image"] = encode_siegel(moduli.sigma_involution_image(M, Y))
    return out


def _cmd_real_structure(req: JobRequest) -> dict:
    om = decode_siegel(_need(req.payload, "Omega"))
    Ms = moduli.real_structure_matrix(om, tol=_opt_float(req, "tol", 1e-9))
    return {"status": "ok", "M": encode_matrix(Ms)}


def _cmd_cayley(req: JobRequest) -> dict:
    direction = _need(req.payload, "direction")
    if direction == "to_disk":
        om = decode_siegel(_need(req.payload, "Omega"))
        W = siegel.cayley_to_disk(om)
        return {"status": "ok", "W": encode_matrix(W)}
    if direction == "to_halfspace":
        W = decode_matrix(_need(req.payload, "W"), "complex", square=True)
        om = siegel.cayley_to_halfspace(W)
        return {"status": "ok", "Omega": encode_siegel(om)}
    raise InputError("direction must be 'to_disk' or 'to_halfspace'")


def _cmd_act(req: JobRequest) -> dict:
    kind = _need(req.payload, "kind")
    if kind == "gl":
        A = decode_matrix(_need(req.payload, "A"), "real", square=True)
        Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
        return {"status": "ok", "Y": encode_matrix(spdcone.gl_act(A, Y))}
    if kind == "sp":
        M = decode_matrix(_need(req.payload, "M"), "real", square=True)
        om = decode_siegel(_need(req.payload, "Omega"))
        return {"status": "ok", "Omega": encode_siegel(siegel.sp_act(M, om))}
    if kind == "disk":
        M = decode_matrix(_need(req.payload, "M"), "real", square=True)
        W = decode_matrix(_need(req.payload, "W"), "complex", square=True)
        return {"status": "ok", "W": encode_matrix(siegel.disk_act(M, W))}
    if kind == "gamma_star":
        M = decode_matrix(_need(req.payload, "M"), "int", square=True)
        om = decode_siegel(_need(req.payload, "Omega"))
        return {"status": "ok", "Omega": encode_siegel(siegel.gamma_star_act(M, om))}
    if kind == "glgh":
        A = decode_matrix(_need(req.payload, "A"), "real", square=True)
        a = decode_matrix(_need(req.payload, "a"), "real")
        Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
        V = decode_matrix(_need(req.payload, "V"), "real")
        p = geodesics.glgh_act(geodesics.GroupElementGLgh(A=A, a=a),
                               geodesics.MinkowskiEuclidPoint(Y=Y, V=V))
        return {"status": "ok", "Y": encode_matrix(p.Y), "V": encode_matrix(p.V)}
    raise InputError(f"unknown action kind {kind!r}")


def _cmd_jacobi_act(req: JobRequest) -> dict:
    elem = siegel.JacobiGroupElement(
        M=decode_matrix(_need(req.payload, "M"), "real", square=True),
        lam=decode_matrix(_need(req.payload, "lam"), "real"),
        mu=decode_matrix(_need(req.payload, "mu"), "real"),
        kappa=decode_matrix(_need(req.payload, "kappa"), "real"),
    )
    om = decode_siegel(_need(req.payload, "Omega"))
    Z = decode_matrix(_need(req.payload, "Z"), "complex")
    om2, Z2 = siegel.jacobi_group_act(elem, om, Z)
    return {"status": "ok", "Omega": encode_siegel(om2), "Z": encode_matrix(Z2)}


def _cmd_theta(req: JobRequest) -> dict:
    eps = _opt_float(req, "eps", 1e-12)
    Pi = decode_matrix(_need(req.payload, "Pi"), "real", square=True) \
        if "Pi" in req.payload else None
    if Pi is None:
        Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
        bundle = theta.canonical_line_bundle_data(Y)
        spec = bundle.spec
    else:
        B = decode_matrix(_need(req.payload, "B"), "real", square=True)
        if "rho" in req.payload:
            rho = decode_vector(req.payload["rho"], "complex")
        else:
            rho = np.ones(Pi.shape[0], dtype=complex)
        spec = theta.ThetaSpec(Pi=Pi, B=B, rho=rho)
    v = decode_vector(_need(req.payload, "v"), "real").astype(float)
    value = theta.theta_eval(spec, v, eps=eps)
    return {"status": "ok", "value": complex(value), "eps": eps}


def _cmd_factor(req: JobRequest) -> dict:
    kind = _need(req.payload, "kind")
    lam = decode_vector(_need(req.payload, "lam"), "int")
    if kind == "I_B_rho":
        Pi = decode_matrix(_need(req.payload, "Pi"), "real", square=True)
        B = decode_matrix(_need(req.payload, "B"), "real", square=True)
        rho = decode_vector(req.payload["rho"], "complex") if "rho" in req.payload \
            else np.ones(Pi.shape[0], dtype=complex)
        spec = theta.ThetaSpec(Pi=Pi, B=B, rho=rho)
        v = decode_vector(_need(req.payload, "arg"), "real").astype(float)
        value = theta.automorphic_factor_eval(kind, spec, lam.astype(int), v)
    else:
        Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
        bundle = theta.canonical_line_bundle_data(Y)
        arg_kind = "complex" if kind == "J_H_alpha" else "real"
        arg = decode_vector(_need(req.payload, "arg"), arg_kind)
        if arg_kind == "real":
            arg = arg.astype(float)
        value = theta.automorphic_factor_eval(kind, bundle, lam.astype(int), arg)
    return {"status": "ok", "value": complex(value)}


def _cmd_distance(req: JobRequest) -> dict:
    p0 = geodesics.MinkowskiEuclidPoint(
        Y=decode_matrix(_need(req.payload, "Y0"), "real", square=True),
        V=decode_matrix(_need(req.payload, "V0"), "real"),
    )
    p1 = geodesics.MinkowskiEuclidPoint(
        Y=decode_matrix(_need(req.payload, "Y1"), "real", square=True),
        V=decode_matrix(_need(req.payload, "V1"), "real"),
    )
    A_c = float(req.payload.get("A", 1.0))
    B_c = float(req.payload.get("B", 1.0))
    value = geodesics.distance(p0, p1, A_c=A_c, B_c=B_c)
    return {"status": "ok", "value": value}


def _cmd_geodesic(req: JobRequest) -> dict:
    p = geodesics.geodesic_through_origin(
        k=decode_matrix(_need(req.payload, "k"), "real", square=True),
        lambdas=decode_vector(_need(req.payload, "lambdas"), "real").astype(float),
        Z=decode_matrix(_need(req.payload, "Z"), "real"),
        t=float(_decode_scalar(_need(req.payload, "t"), "real")),
    )
    return {"status": "ok", "Y": encode_matrix(p.Y), "V": encode_matrix(p.V)}


def _cmd_iwasawa(req: JobRequest) -> dict:
    Y = decode_matrix(_need(req.payload, "Y"), "real", square=True)
    r = _decode_scalar(_need(req.payload, "r"), "int")
    variant = req.payload.get("variant", "lower")
    blocks = spdcone.partial_iwasawa(Y, r, variant=variant)
    return {
        "status": "ok",
        "F": encode_matrix(blocks.F),
        "G": encode_matrix(blocks.G),
        "H": encode_matrix(blocks.H),
        "variant": blocks.variant,
    }


def _ext_from_payload(req: JobRequest, sigma_key: str = "sigma") -> extensions.ExtensionDatum:
    Pi1 = _maybe_exact_matrix(_need(req.payload, "Pi1"))
    Pi2 = _maybe_exact_matrix(_need(req.payload, "Pi2"))
    sigma = _maybe_exact_matrix(_need(req.payload, sigma_key))
    if (Pi1.dtype == object) != (Pi2.dtype == object) or \
            (Pi1.dtype == object) != (sigma.dtype == object):
        Pi1 = decode_matrix(_need(req.payload, "Pi1"), "complex")
        Pi2 = decode_matrix(_need(req.payload, "Pi2"), "complex")
        sigma = decode_matrix(_need(req.payload, sigma_key), "complex")
    return extensions.ExtensionDatum(Pi1=Pi1, Pi2=Pi2, sigma=sigma)


def _cmd_ext_normal(req: JobRequest) -> dict:
    e = _ext_from_payload(req)
    return {"status": "ok", "alpha": encode_matrix(extensions.ext_normal_form(e))}


def _cmd_ext_add(req: JobRequest) -> dict:
    e = _ext_from_payload(req, "sigma1")
    f = _ext_from_payload(req, "sigma2")
    return {"status": "ok", "sigma": encode_matrix(extensions.ext_add(e, f).sigma)}


def _cmd_ext_equiv(req: JobRequest) -> dict:
    e = _ext_from_payload(req, "sigma1")
    f = _ext_from_payload(req, "sigma2")
    verdict, witness = extensions.ext_equivalent(e, f)
    out = {"status": "ok", "verdict": verdict.value}
    if witness is not None:
        out["M"] = encode_matrix(witness)
    if verdict is Verdict.UNDECIDED:
        out["status"] = "undecided"
        raise UndecidedError(out)
    return out


def _cmd_degenerate(req: JobRequest) -> dict:
    params = decode_vector(_need(req.payload, "params"), "real").astype(float)
    complex_family = bool(req.payload.get("complex", False))
    kind = "complex" if complex_family else "real"
    mats = [decode_matrix(m, kind, square=True) if not complex_family
            else decode_siegel(m) if isinstance(m, dict) else decode_matrix(m, "complex", square=True)
            for m in _need(req.payload, "matrices")]
    sample = degenerations.FamilySample(params=params, matrices=mats)
    report = degenerations.detect_divergence(sample, complex_family=complex_family)
    out = {"status": report.status, "verdicts": list(report.verdicts)}
    if report.status != "ok":
        out["detail"] = report.detail
        raise UndecidedError(out)
    out["t"] = report.t
    limit = degenerations.limit_matrix(sample, report.t, complex_family=complex_family)
    if complex_family:
        core, rows = degenerations.semi_abelian_limit(limit, report.t)
        out["Z0"] = encode_matrix(limit)
        out["Z_diamond"] = encode_matrix(core)
        out["rows"] = encode_matrix(rows) if rows.size else []
    else:
        lim = degenerations.semi_torus_limit(limit, report.t)
        out["Y0"] = encode_matrix(lim.Y0)
        out["Y_diamond"] = encode_matrix(lim.Y_diamond)
    return out


def _cmd_split_involution(req: JobRequest) -> dict:
    S = decode_matrix(_need(req.payload, "S"), "int", square=True)
    s_prime, p, t_prime = degenerations.involution_splitting_type(S)
    return {"status": "ok", "s_prime": s_prime, "p": p, "t_prime": t_prime}


def _cmd_cocycle(req: JobRequest) -> dict:
    gamma = decode_matrix(_need(req.payload, "gamma"), "int", square=True)
    return {"status": "ok", "is_cocycle": cohomology.is_cocycle(gamma)}


def _cmd_coboundary(req: JobRequest) -> dict:
    if "bound" in req.options:
        raise InputError("option bound does not apply to coboundary: the answer is exact")
    gamma = decode_matrix(_need(req.payload, "gamma"), "int", square=True)
    if gamma.shape[0] > 2 * _MAX_COBOUNDARY_G:
        raise InputError(f"field 'gamma' must be at most {2 * _MAX_COBOUNDARY_G} x "
                         f"{2 * _MAX_COBOUNDARY_G} (g <= {_MAX_COBOUNDARY_G})")
    h = cohomology.coboundary_witness(gamma)
    return {"status": "ok", "witness": None if h is None else encode_matrix(h)}


def _cmd_fixed_locus(req: JobRequest) -> dict:
    gamma = decode_matrix(_need(req.payload, "gamma"), "real", square=True)
    om = decode_siegel(_need(req.payload, "Omega"))
    tol = _opt_float(req, "tol", 1e-10)
    return {"status": "ok", "member": cohomology.fixed_locus_member(gamma, om, tol=tol),
            "tol": tol}


COMMANDS = {
    "reduce": _cmd_reduce,
    "equiv": _cmd_equiv,
    "classify-mod2": _cmd_classify_mod2,
    "invariants": _cmd_invariants,
    "sigma": _cmd_sigma,
    "real-structure": _cmd_real_structure,
    "cayley": _cmd_cayley,
    "act": _cmd_act,
    "jacobi-act": _cmd_jacobi_act,
    "theta": _cmd_theta,
    "factor": _cmd_factor,
    "distance": _cmd_distance,
    "geodesic": _cmd_geodesic,
    "iwasawa": _cmd_iwasawa,
    "ext-normal": _cmd_ext_normal,
    "ext-add": _cmd_ext_add,
    "ext-equiv": _cmd_ext_equiv,
    "degenerate": _cmd_degenerate,
    "split-involution": _cmd_split_involution,
    "cocycle": _cmd_cocycle,
    "coboundary": _cmd_coboundary,
    "fixed-locus": _cmd_fixed_locus,
}


def dispatch(req: JobRequest) -> tuple[dict, int]:
    """Run one request; returns (result object, exit code)."""
    handler = COMMANDS[req.cmd]
    try:
        return handler(req), 0
    except UndecidedError as exc:
        return exc.payload, 3
    except InputError:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(str(exc)) from exc


# severity of exit codes, least to most severe
_SEVERITY = (0, 3, 2, 1)


def _failure(exc: Exception) -> tuple[str, int]:
    """Error entry and exit code for a failed request; the message goes to stderr."""
    if isinstance(exc, InputError):
        print(f"input error: {exc}", file=sys.stderr)
        return canonical_json({"status": "error", "error": str(exc)}), 2
    print(f"internal error: {exc}", file=sys.stderr)
    return canonical_json({"status": "error", "error": f"internal: {exc}"}), 1


def _run(item, cmd_override: str | None, options: dict) -> tuple[str, int]:
    """Canonical output text and exit code of one decoded request."""
    try:
        result, code = dispatch(_single_request(item, cmd_override, options))
        return canonical_json(result), code
    except Exception as exc:  # the request fails alone; its batch goes on
        return _failure(exc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="realtori",
        description="polarized real tori toolkit: JSON in, deterministic JSON out",
    )
    parser.add_argument("command", nargs="?", default=None,
                        help="command name; may instead be the 'cmd' field of the input")
    parser.add_argument("--input", default="-", help="input file or '-' for stdin")
    parser.add_argument("--output", default="-", help="output file or '-' for stdout")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--bound", type=int, default=None)
    parser.add_argument("--eps", type=float, default=None)
    args = parser.parse_args(argv)

    options = {k: v for k, v in
               (("tol", args.tol), ("bound", args.bound), ("eps", args.eps)) if v is not None}

    def write(text: str) -> None:
        if args.output == "-":
            sys.stdout.write(text + "\n")
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    try:
        data = _decode_json(text)
    except InputError as exc:
        out, code = _failure(exc)
        write(out)
        return code

    if isinstance(data, list):
        runs = [_run(item, args.command, options) for item in data]
        write("[" + ",".join(out for out, _ in runs) + "]")
        return max((code for _, code in runs), key=_SEVERITY.index, default=0)
    out, code = _run(data, args.command, options)
    write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
