"""Command-line front end: every operation on JSON input, deterministic output.

A request is a command name and its payload, the JSON object without its
"cmd" field.  A command given on the command line replaces "cmd"; the flags
--tol, --bound and --eps are merged into the payload and replace fields of
the same name.  Each handler reads everything, options included, from the
payload.  The ``tol`` of ``equiv`` is relative to max|Y2|.  The ``eps`` of
``theta`` bounds the tail of the sum over the argument's fundamental cell,
which the transformation-law factor then multiplies: outside the cell the
absolute error of the value scales with |factor|.

All commands are thin adapters around the library; the only logic here is
serialization.  Matrices are nested arrays (row-major), complex numbers are
{"re":..., "im":...}, exact rationals are "p/q" strings, half-space points
are {"X":..., "Y":...}.  Exit codes: 0 ok, 1 internal error, 2 bad input,
3 for a result whose "status" is "undecided".  A number that is not finite
(NaN, Infinity, a literal such as 1e309) is bad input, and so is a result
that overflows.  Output bytes are a pure function of the input: fixed key
order and 17-significant-digit floats.

Each field is decoded once, by its kind.  A real field takes a number or
a numeric string such as "3/4"; an integer field an integer or a float
with an integral value; a rational field an integer or a "p/q" string; a
complex field a number, a decimal string or {"re":..., "im":...} (a
missing part is 0).  A boolean is refused in every numeric field and
numeric option: JSON true and false are not 1 and 0.  The ``ext-*``
commands take rational matrices when each of their three matrices holds a
string or only integral numbers, and complex matrices otherwise.

A JSON array of requests is a batch: the output is an array with one entry
per item, in order.  An item that fails gets its own entry
{"status":"error","error":"<msg>"} ("internal: <msg>" for an internal error)
and the other items still run.  The batch exits with its most severe code,
ranked 1 > 2 > 3 > 0.  Input that is not valid JSON gives a single error
object and exit code 2.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

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
from .moduli import SEARCH_CAP, Verdict

__all__ = ["main", "parse_request", "dispatch"]


# request size limits: the invariant list has g + 1 + g//2 entries, and the
# coboundary witness is exact integer arithmetic on 2g x 2g matrices, held
# to the g <= 4 of the other commands
_MAX_INVARIANTS_G = 1000
_MAX_COBOUNDARY_G = 4


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError("result is not finite: a value overflows")
    if x.is_integer() and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    out: list[str] = []
    append = out.append

    def emit(o):
        # the exact types of decoded JSON and of tolist() first; subclasses,
        # numpy scalars and arrays, complex numbers and Fractions after them
        t = type(o)
        if t is float:
            append(_fmt_float(o))
        elif t is list or t is tuple:
            append("[")
            for i, v in enumerate(o):
                if i:
                    append(",")
                emit(v)
            append("]")
        elif t is dict:
            append("{")
            for i, (k, v) in enumerate(o.items()):
                if i:
                    append(",")
                append(_quote(str(k)))
                append(":")
                emit(v)
            append("}")
        elif t is str:
            append(_quote(o))
        elif t is int:
            append(str(o))
        elif o is None:
            append("null")
        elif isinstance(o, bool):
            append("true" if o else "false")
        elif isinstance(o, (int, np.integer)):
            append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            append(_fmt_float(float(o)))
        elif isinstance(o, (complex, np.complexfloating)):
            append('{"re":')
            append(_fmt_float(float(o.real)))
            append(',"im":')
            append(_fmt_float(float(o.imag)))
            append("}")
        elif isinstance(o, Fraction):
            append(_quote(f"{o.numerator}/{o.denominator}"))
        elif isinstance(o, str):
            append(_quote(o))
        elif isinstance(o, dict):
            emit(dict(o))
        elif isinstance(o, (list, tuple, np.ndarray)):
            emit(list(o.tolist() if isinstance(o, np.ndarray) else o))
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
    t = type(v)
    if t is int and kind == "int":
        return v
    if t is bool and kind in ("real", "complex"):
        raise InputError(f"bad {kind} value {v!r}: a boolean is not a number")
    try:
        if kind == "int":
            if isinstance(v, float) and not math.isfinite(v):
                raise InputError(f"bad int value {v!r}: not finite")
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
                raise InputError(f"expected integer, got {v!r}")
            return int(v)
        if kind == "real":
            x = float(Fraction(v)) if isinstance(v, str) else float(v)
        elif kind == "complex":
            if not isinstance(v, dict):
                x = complex(float(v))
            elif isinstance(v.get("re"), bool) or isinstance(v.get("im"), bool):
                raise InputError(f"bad complex value {v!r}: a boolean is not a number")
            else:
                x = complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
        elif kind == "rational":
            if isinstance(v, str):
                return Fraction(v)
            if isinstance(v, bool):
                raise InputError("boolean is not a rational")
            if isinstance(v, int):
                return Fraction(v)
            raise InputError(f"expected rational string, got {v!r}")
        else:
            raise InputError(f"unknown scalar kind {kind}")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad {kind} value {v!r}: {exc}") from exc
    # json.loads reads NaN, Infinity and overflowing literals such as 1e309
    if not cmath.isfinite(x):
        raise InputError(f"bad {kind} value {v!r}: not finite")
    return x


def _decode_reals(values: list) -> list[float]:
    # the values of a real field: a finite float as it is, anything else
    # through _decode_scalar
    return [v if type(v) is float and math.isfinite(v) else _decode_scalar(v, "real")
            for v in values]


def decode_matrix(obj, kind: str = "real", square: bool | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputError("matrix must be a nonempty nested array")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise InputError("matrix rows must be nonempty with equal length")
    if kind == "real":
        rows = [_decode_reals(r) for r in obj]
    else:
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
    vals = _decode_reals(obj) if kind == "real" else [_decode_scalar(v, kind) for v in obj]
    if kind == "int":
        return np.array(vals, dtype=object)
    return np.array(vals, dtype=complex if kind == "complex" else float)


def decode_siegel(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "X" not in obj or "Y" not in obj:
        raise InputError('half-space point must be {"X":..., "Y":...}')
    X = decode_matrix(obj["X"], "real", square=True)
    Y = decode_matrix(obj["Y"], "real", square=True)
    return X + 1j * Y


def encode_matrix(M) -> list:
    return np.asarray(M).tolist()


def encode_siegel(om: np.ndarray) -> dict:
    return {"X": encode_matrix(om.real), "Y": encode_matrix(om.imag)}


def _looks_exact(obj) -> bool:
    """Rational entries (strings) or integer values select the exact path.

    Anything but a list of rows is left for ``decode_matrix`` to refuse."""
    rows = obj if isinstance(obj, list) and all(isinstance(r, list) for r in obj) else []
    flat = [v for row in rows for v in row]
    return any(isinstance(v, str) for v in flat) or all(
        isinstance(v, int) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer()
        for v in flat)


# ---------------------------------------------------------------------------
# request parsing


def _decode_json(text: str):
    # JSONDecodeError is a ValueError; so is an integer literal longer than
    # the interpreter's digit limit.  Nesting deeper than the recursion limit
    # raises RecursionError.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def parse_request(text: str) -> tuple[str, dict]:
    """The (command, payload) request of one JSON object."""
    return _request(_decode_json(text))


def _request(data, cmd: str | None = None, flags: dict | None = None) -> tuple[str, dict]:
    """(command, payload) of a decoded request; ``cmd`` and ``flags`` come
    from the command line and take precedence over the object's fields."""
    if not isinstance(data, dict):
        raise InputError("request payload must be a JSON object")
    payload = dict(data)
    name = payload.pop("cmd", None)
    if cmd is not None:
        name = cmd
    if not isinstance(name, str) or name not in COMMANDS:
        raise InputError(f"unknown or missing command {name!r}")
    payload.update(flags or {})
    return name, payload


def _opt_float(payload: dict, key: str, default: float) -> float:
    v = payload.get(key)
    if v is None:
        return default
    if isinstance(v, bool):
        raise InputError(f"option {key} must be a number")
    try:
        x = float(v)
    except (TypeError, ValueError) as exc:
        raise InputError(f"option {key} must be a number") from exc
    if not math.isfinite(x):
        raise InputError(f"option {key} must be finite")
    return x


def _opt_int(payload: dict, key: str, default: int) -> int:
    v = payload.get(key)
    if v is None:
        return default
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"option {key} must be finite")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != int(v):
        raise InputError(f"option {key} must be an integer")
    return int(v)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_reduce(payload: dict) -> dict:
    Y = decode_matrix(_need(payload, "Y"), "real", square=True)
    R, A = spdcone.minkowski_reduce(Y)
    return {"status": "ok", "R": encode_matrix(R), "A": encode_matrix(A)}


def _cmd_equiv(payload: dict) -> dict:
    tol = _opt_float(payload, "tol", 1e-9)
    if "Y1" in payload:
        Y1 = decode_matrix(_need(payload, "Y1"), "real", square=True)
        Y2 = decode_matrix(_need(payload, "Y2"), "real", square=True)
        res = moduli.polarized_tori_equivalent(Y1, Y2, tol=tol,
                                               cap=_opt_int(payload, "bound", SEARCH_CAP))
    else:
        om1 = decode_siegel(_need(payload, "Omega1"))
        om2 = decode_siegel(_need(payload, "Omega2"))
        res = moduli.real_ppav_equivalent(om1, om2, tol=tol,
                                          cap=_opt_int(payload, "bound", SEARCH_CAP))
    undecided = res.verdict is Verdict.UNDECIDED
    out = {"status": "undecided" if undecided else "ok", "verdict": res.verdict.value,
           "tol": tol}
    if res.witness is not None:
        out["A"] = encode_matrix(res.witness)
    if res.detail:
        out["detail"] = res.detail
    return out


def _cmd_classify_mod2(payload: dict) -> dict:
    N = decode_matrix(_need(payload, "N"), "int", square=True)
    S, A = moduli.mod2_standard_form(N)
    # S is diag(I_lambda, 0), or the lambda x lambda anti-identity when i = 1
    i = 0 if S.diagonal().any() else 1
    return {
        "status": "ok",
        "lambda": int(S.sum()),
        "i": i,
        "form": "II" if i == 1 else "I",
        "S": encode_matrix(S),
        "A": encode_matrix(A),
    }


def _cmd_invariants(payload: dict) -> dict:
    g = _opt_int(payload, "g", 0)
    if not 1 <= g <= _MAX_INVARIANTS_G:
        raise InputError(f"field 'g' must be an integer in 1..{_MAX_INVARIANTS_G}")
    invs = moduli.valid_invariants(g)
    return {
        "status": "ok",
        "count": len(invs),
        "invariants": [[iv.lam, iv.i] for iv in invs],
    }


def _cmd_sigma(payload: dict) -> dict:
    M = decode_matrix(_need(payload, "M"), "int", square=True)
    S = moduli.sigma_M_matrix(M)
    out = {"status": "ok", "Sigma": encode_matrix(S)}
    if "Y" in payload:
        Y = decode_matrix(payload["Y"], "real", square=True)
        out["image"] = encode_siegel(moduli.sigma_involution_image(M, Y))
    return out


def _cmd_real_structure(payload: dict) -> dict:
    om = decode_siegel(_need(payload, "Omega"))
    Ms = moduli.real_structure_matrix(om, tol=_opt_float(payload, "tol", 1e-9))
    return {"status": "ok", "M": encode_matrix(Ms)}


def _cmd_cayley(payload: dict) -> dict:
    direction = _need(payload, "direction")
    if direction == "to_disk":
        om = decode_siegel(_need(payload, "Omega"))
        W = siegel.cayley_to_disk(om)
        return {"status": "ok", "W": encode_matrix(W)}
    if direction == "to_halfspace":
        W = decode_matrix(_need(payload, "W"), "complex", square=True)
        om = siegel.cayley_to_halfspace(W)
        return {"status": "ok", "Omega": encode_siegel(om)}
    raise InputError("direction must be 'to_disk' or 'to_halfspace'")


def _cmd_act(payload: dict) -> dict:
    kind = _need(payload, "kind")
    if kind == "gl":
        A = decode_matrix(_need(payload, "A"), "real", square=True)
        Y = decode_matrix(_need(payload, "Y"), "real", square=True)
        return {"status": "ok", "Y": encode_matrix(spdcone.gl_act(A, Y))}
    if kind == "sp":
        M = decode_matrix(_need(payload, "M"), "real", square=True)
        om = decode_siegel(_need(payload, "Omega"))
        return {"status": "ok", "Omega": encode_siegel(siegel.sp_act(M, om))}
    if kind == "disk":
        M = decode_matrix(_need(payload, "M"), "real", square=True)
        W = decode_matrix(_need(payload, "W"), "complex", square=True)
        return {"status": "ok", "W": encode_matrix(siegel.disk_act(M, W))}
    if kind == "gamma_star":
        M = decode_matrix(_need(payload, "M"), "int", square=True)
        om = decode_siegel(_need(payload, "Omega"))
        return {"status": "ok", "Omega": encode_siegel(siegel.gamma_star_act(M, om))}
    if kind == "glgh":
        A = decode_matrix(_need(payload, "A"), "real", square=True)
        a = decode_matrix(_need(payload, "a"), "real")
        Y = decode_matrix(_need(payload, "Y"), "real", square=True)
        V = decode_matrix(_need(payload, "V"), "real")
        p = geodesics.glgh_act(geodesics.GroupElementGLgh(A=A, a=a),
                               geodesics.MinkowskiEuclidPoint(Y=Y, V=V))
        return {"status": "ok", "Y": encode_matrix(p.Y), "V": encode_matrix(p.V)}
    raise InputError(f"unknown action kind {kind!r}")


def _cmd_jacobi_act(payload: dict) -> dict:
    elem = siegel.JacobiGroupElement(
        M=decode_matrix(_need(payload, "M"), "real", square=True),
        lam=decode_matrix(_need(payload, "lam"), "real"),
        mu=decode_matrix(_need(payload, "mu"), "real"),
        kappa=decode_matrix(_need(payload, "kappa"), "real"),
    )
    om = decode_siegel(_need(payload, "Omega"))
    Z = decode_matrix(_need(payload, "Z"), "complex")
    om2, Z2 = siegel.jacobi_group_act(elem, om, Z)
    return {"status": "ok", "Omega": encode_siegel(om2), "Z": encode_matrix(Z2)}


def _theta_spec(payload: dict) -> theta.ThetaSpec:
    """Explicit theta data Pi, B and rho (all ones when absent)."""
    Pi = decode_matrix(_need(payload, "Pi"), "real", square=True)
    B = decode_matrix(_need(payload, "B"), "real", square=True)
    rho = decode_vector(payload["rho"], "complex") if "rho" in payload \
        else np.ones(Pi.shape[0], dtype=complex)
    return theta.ThetaSpec(Pi=Pi, B=B, rho=rho)


def _canonical_bundle(payload: dict) -> theta.CanonicalBundle:
    Y = decode_matrix(_need(payload, "Y"), "real", square=True)
    return theta.canonical_line_bundle_data(Y)


def _cmd_theta(payload: dict) -> dict:
    eps = _opt_float(payload, "eps", 1e-12)
    spec = _theta_spec(payload) if "Pi" in payload else _canonical_bundle(payload).spec
    v = decode_vector(_need(payload, "v"), "real")
    value = theta.theta_eval(spec, v, eps=eps)
    return {"status": "ok", "value": complex(value), "eps": eps}


def _cmd_factor(payload: dict) -> dict:
    kind = _need(payload, "kind")
    lam = decode_vector(_need(payload, "lam"), "int")
    data = _theta_spec(payload) if kind == "I_B_rho" else _canonical_bundle(payload)
    arg = decode_vector(_need(payload, "arg"), "complex" if kind == "J_H_alpha" else "real")
    value = theta.automorphic_factor_eval(kind, data, lam, arg)
    return {"status": "ok", "value": complex(value)}


def _cmd_distance(payload: dict) -> dict:
    p0 = geodesics.MinkowskiEuclidPoint(
        Y=decode_matrix(_need(payload, "Y0"), "real", square=True),
        V=decode_matrix(_need(payload, "V0"), "real"),
    )
    p1 = geodesics.MinkowskiEuclidPoint(
        Y=decode_matrix(_need(payload, "Y1"), "real", square=True),
        V=decode_matrix(_need(payload, "V1"), "real"),
    )
    value = geodesics.distance(p0, p1, A_c=_opt_float(payload, "A", 1.0),
                               B_c=_opt_float(payload, "B", 1.0))
    return {"status": "ok", "value": value}


def _cmd_geodesic(payload: dict) -> dict:
    p = geodesics.geodesic_through_origin(
        k=decode_matrix(_need(payload, "k"), "real", square=True),
        lambdas=decode_vector(_need(payload, "lambdas"), "real"),
        Z=decode_matrix(_need(payload, "Z"), "real"),
        t=float(_decode_scalar(_need(payload, "t"), "real")),
    )
    return {"status": "ok", "Y": encode_matrix(p.Y), "V": encode_matrix(p.V)}


def _cmd_iwasawa(payload: dict) -> dict:
    Y = decode_matrix(_need(payload, "Y"), "real", square=True)
    r = _decode_scalar(_need(payload, "r"), "int")
    variant = payload.get("variant", "lower")
    blocks = spdcone.partial_iwasawa(Y, r, variant=variant)
    return {
        "status": "ok",
        "F": encode_matrix(blocks.F),
        "G": encode_matrix(blocks.G),
        "H": encode_matrix(blocks.H),
        "variant": blocks.variant,
    }


def _ext_from_payload(payload: dict, sigma_key: str = "sigma") -> extensions.ExtensionDatum:
    """Exact (rational) matrices when all three look exact, else complex ones."""
    objs = [_need(payload, key) for key in ("Pi1", "Pi2", sigma_key)]
    kind = "rational" if all(_looks_exact(obj) for obj in objs) else "complex"
    Pi1, Pi2, sigma = (decode_matrix(obj, kind) for obj in objs)
    return extensions.ExtensionDatum(Pi1=Pi1, Pi2=Pi2, sigma=sigma)


def _cmd_ext_normal(payload: dict) -> dict:
    e = _ext_from_payload(payload)
    return {"status": "ok", "alpha": encode_matrix(extensions.ext_normal_form(e))}


def _cmd_ext_add(payload: dict) -> dict:
    e = _ext_from_payload(payload, "sigma1")
    f = _ext_from_payload(payload, "sigma2")
    return {"status": "ok", "sigma": encode_matrix(extensions.ext_add(e, f).sigma)}


def _cmd_ext_equiv(payload: dict) -> dict:
    e = _ext_from_payload(payload, "sigma1")
    f = _ext_from_payload(payload, "sigma2")
    verdict, witness = extensions.ext_equivalent(e, f)
    out = {"status": "ok", "verdict": verdict.value}
    if witness is not None:
        out["M"] = encode_matrix(witness)
    return out


def _cmd_degenerate(payload: dict) -> dict:
    params = decode_vector(_need(payload, "params"), "real")
    complex_family = payload.get("complex", False)
    if type(complex_family) is not bool:
        raise InputError("field 'complex' must be a boolean")
    mats = [decode_matrix(m, "real", square=True) if not complex_family
            else decode_siegel(m) if isinstance(m, dict) else decode_matrix(m, "complex", square=True)
            for m in _need(payload, "matrices")]
    sample = degenerations.FamilySample(params=params, matrices=mats)
    report = degenerations.detect_divergence(sample)
    out = {"status": report.status, "verdicts": list(report.verdicts)}
    if report.status != "ok":
        out["detail"] = report.detail
        return out
    out["t"] = report.t
    limit = degenerations.limit_matrix(sample, report.t)
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


def _cmd_split_involution(payload: dict) -> dict:
    S = decode_matrix(_need(payload, "S"), "int", square=True)
    s_prime, p, t_prime = degenerations.involution_splitting_type(S)
    return {"status": "ok", "s_prime": s_prime, "p": p, "t_prime": t_prime}


def _cmd_cocycle(payload: dict) -> dict:
    gamma = decode_matrix(_need(payload, "gamma"), "int", square=True)
    return {"status": "ok", "is_cocycle": cohomology.is_cocycle(gamma)}


def _cmd_coboundary(payload: dict) -> dict:
    if "bound" in payload:
        raise InputError("option bound does not apply to coboundary: the answer is exact")
    gamma = decode_matrix(_need(payload, "gamma"), "int", square=True)
    if gamma.shape[0] > 2 * _MAX_COBOUNDARY_G:
        raise InputError(f"field 'gamma' must be at most {2 * _MAX_COBOUNDARY_G} x "
                         f"{2 * _MAX_COBOUNDARY_G} (g <= {_MAX_COBOUNDARY_G})")
    h = cohomology.coboundary_witness(gamma)
    return {"status": "ok", "witness": None if h is None else encode_matrix(h)}


def _cmd_fixed_locus(payload: dict) -> dict:
    gamma = decode_matrix(_need(payload, "gamma"), "real", square=True)
    om = decode_siegel(_need(payload, "Omega"))
    tol = _opt_float(payload, "tol", 1e-10)
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


def dispatch(req: tuple[str, dict]) -> tuple[dict, int]:
    """Run one (command, payload) request; returns (result object, exit code),
    the code 3 when the result's status is "undecided" and 0 otherwise."""
    cmd, payload = req
    handler = COMMANDS[cmd]
    try:
        result = handler(payload)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InputError(str(exc)) from exc
    return result, 3 if result["status"] == "undecided" else 0


# severity of exit codes, least to most severe
_SEVERITY = (0, 3, 2, 1)


def _failure(exc: Exception) -> tuple[str, int]:
    """Error entry and exit code for a failed request; the message goes to stderr."""
    if isinstance(exc, InputError):
        print(f"input error: {exc}", file=sys.stderr)
        return canonical_json({"status": "error", "error": str(exc)}), 2
    print(f"internal error: {exc}", file=sys.stderr)
    return canonical_json({"status": "error", "error": f"internal: {exc}"}), 1


def _run(item, cmd: str | None, flags: dict) -> tuple[str, int]:
    """Canonical output text and exit code of one decoded request."""
    try:
        result, code = dispatch(_request(item, cmd, flags))
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

    flags = {k: v for k, v in
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
        runs = [_run(item, args.command, flags) for item in data]
        write("[" + ",".join(out for out, _ in runs) + "]")
        return max((code for _, code in runs), key=_SEVERITY.index, default=0)
    out, code = _run(data, args.command, flags)
    write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
