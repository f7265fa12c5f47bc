import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from realtori import cli, exactlinalg, moduli, spdcone, theta

INVARIANTS = '{"cmd":"invariants","g":2}'
NOT_SPD = '{"cmd":"reduce","Y":[[1,2],[2,1]]}'
# an inequivalent pair of equal reduced diagonals, which the successive minima
# do not decide, whose witness search stops at its cap of one vector, so the
# verdict is undecided
UNDECIDED = ('{"cmd":"equiv","Omega1":{"X":[[0,0],[0,0]],"Y":[[2,0],[0,3.5]]},'
             '"Omega2":{"X":[[0,0],[0,0]],"Y":[[2,0.5],[0.5,3.5]]},"bound":1}')


class TestRemovedFlags:
    @pytest.mark.parametrize("flag", ["--jobs", "--seed"])
    def test_flag_is_rejected(self, run_cli, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(INVARIANTS, flag, "2")
        assert exc.value.code == 2


class TestSingleRequest:
    def test_ok(self, run_cli):
        code, out = run_cli(INVARIANTS)
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_theta_overflow_is_bad_input(self, run_cli):
        code, out = run_cli('{"cmd":"theta","Y":[[1]],"v":[1000.3]}')
        assert code == 2
        assert json.loads(out)["status"] == "error"
        assert "internal" not in out

    @pytest.mark.parametrize("text, value", [
        ('{"cmd":"theta","Pi":[[1]],"B":[[1e4]],"rho":[1],"v":[0.3]}', 1.0),
        ('{"cmd":"theta","Y":[[1e-3,0],[0,1e-3]],"v":[0.0001,0.0002]}', 1000.15709197033),
    ])
    def test_theta_far_from_unit_scale(self, run_cli, text, value):
        code, out = run_cli(text)
        assert code == 0
        answer = json.loads(out)["value"]
        assert abs(complex(answer["re"], answer["im"]) - value) < 1e-12 * value

    def test_cayley_image_rounding_onto_the_boundary(self, run_cli):
        """A valid point whose disk image rounds onto the boundary: the
        refusal names the image, not the point given."""
        code, out = run_cli('{"cmd":"cayley","direction":"to_disk",'
                            '"Omega":{"X":[[0,0],[0,0]],"Y":[[1,0],[0,1e17]]}}')
        assert code == 2
        assert json.loads(out) == {
            "status": "error", "error": "the image of the point rounds onto or beyond the disk's boundary"}

    def test_float_ext_equiv_is_bad_input(self, run_cli):
        code, out = run_cli('{"cmd":"ext-equiv","Pi1":[[0.5]],"Pi2":[[0.3333]],'
                            '"sigma1":[[0.1,0.2]],"sigma2":[[0.1,1.2]]}')
        assert code == 2
        assert json.loads(out)["status"] == "error"

    def test_integral_float_in_float_ext_request(self, run_cli):
        # exactness is decided once for all three matrices: these are floats
        code, out = run_cli('{"cmd":"ext-normal","Pi1":[[2.0]],"Pi2":[[0.5]],'
                            '"sigma":[[0.1,0.2]]}')
        assert code == 0
        assert json.loads(out)["alpha"] == [[{"re": 0.2 - 0.1 * 0.5, "im": 0.0}]]

    def test_real_structure_beyond_int64(self, run_cli):
        # 2X = 2e20 is an integral float above 2^63: it keeps its digits
        code, out = run_cli('{"cmd":"real-structure","Omega":{"X":[[1e20]],"Y":[[1]]}}')
        assert code == 0
        assert json.loads(out)["M"] == [[-1, 0], [2 * 10**20, 1]]

    def test_sigma_size_mismatch_is_bad_input(self, run_cli):
        code, out = run_cli('{"cmd":"sigma","M":[[1,0],[0,1]],"Y":[[1]]}')
        assert code == 2
        assert json.loads(out) == {"status": "error", "error": "M is 2 x 2 but Y is 1 x 1"}

    @pytest.mark.parametrize("key", ["Pi1", "Pi2", "sigma"])
    def test_flat_ext_matrix_is_bad_input(self, run_cli, key):
        request = {"cmd": "ext-normal", "Pi1": [[2]], "Pi2": [[3]], "sigma": [[1, 4]]}
        request[key] = [v for row in request[key] for v in row]
        code, out = run_cli(json.dumps(request))
        assert code == 2
        assert json.loads(out) == {"status": "error",
                                   "error": "matrix must be a nonempty nested array"}

    def test_theta_on_y_builds_no_semicharacter(self, run_cli, monkeypatch):
        built = []
        post_init = theta.SemiCharacter.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(theta.SemiCharacter, "__post_init__", counting)
        assert run_cli('{"cmd":"theta","Y":[[2,1],[1,2]],"v":[0.1,0.2]}')[0] == 0
        assert built == []
        assert run_cli('{"cmd":"factor","kind":"J_H_alpha","Y":[[2,1],[1,2]],'
                       '"lam":[1,0,0,1],"arg":[0,0]}')[0] == 0
        assert built == [1]

    def test_non_utf8_input_is_bad_input(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_bytes(b"\xff\xfe{")
        assert cli.main(["--input", str(src)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_undecodable_json(self, run_cli):
        code, out = run_cli("[" + INVARIANTS + ",")
        assert code == 2
        err = json.loads(out)
        assert err["status"] == "error" and err["error"].startswith("invalid JSON")


# one value per branch of the encoder, each with the bytes it has always had
CANONICAL = {
    "numpy float": (np.float64(0.1), '0.10000000000000001'),
    "numpy float32": (np.float32(0.1), '0.10000000149011612'),
    "numpy int": (np.int64(-7), '-7'),
    "numpy complex": (np.complex128(1.5 - 2j), '{"re":1.5,"im":-2.0}'),
    "complex": (complex(0.25, -0.0), '{"re":0.25,"im":-0.0}'),
    "negative zero": (-0.0, '-0.0'),
    "below 1e16": (1e16 - 2, '9999999999999998.0'),
    "1e16": (1e16, '10000000000000000'),
    "above 1e16": (1e16 + 2, '10000000000000002'),
    "int 2**53": (2 ** 53, '9007199254740992'),
    "float 2**53": (float(2 ** 53), '9007199254740992.0'),
    "object ints above 2**63": (np.array([[2 ** 64, -(2 ** 70)], [0, 1]], dtype=object),
                                '[[18446744073709551616,-1180591620717411303424],[0,1]]'),
    "float array": (np.array([[1.0, 0.5], [-3.0, 1e-300]]), '[[1.0,0.5],[-3.0,1e-300]]'),
    "Fraction": ([Fraction(-3, 4), Fraction(5)], '["-3/4","5/1"]'),
    "tuple": ((1, 2.0, "a", (None,)), '[1,2.0,"a",[null]]'),
    "nested dict": ({"a": {"b": [None, True, False]}, 3: "\u00e9\n"},
                    '{"a":{"b":[null,true,false]},"3":"\\u00e9\\n"}'),
}


class TestCanonicalJson:
    @pytest.mark.parametrize("case", list(CANONICAL))
    def test_bytes(self, case):
        value, expected = CANONICAL[case]
        assert cli.canonical_json(value) == expected

    @pytest.mark.parametrize("value", [math.nan, np.float64("inf"), complex(math.inf, 0),
                                       [1.0, -math.inf]], ids=["nan", "numpy inf",
                                                               "complex inf", "in a list"])
    def test_non_finite_output_is_refused(self, value):
        with pytest.raises(cli.InputError, match="result is not finite: a value overflows"):
            cli.canonical_json(value)

    @pytest.mark.parametrize("value", [np.True_, object()], ids=["numpy bool", "object"])
    def test_unknown_type_is_refused(self, value):
        with pytest.raises(ValueError, match="cannot serialize"):
            cli.canonical_json(value)


class TestBooleans:
    """JSON true and false are not numbers in a numeric field or option."""

    @pytest.mark.parametrize("text, error", [
        ('{"cmd":"reduce","Y":[[true,0],[0,1]]}', "bad real value True: a boolean is not a number"),
        ('{"cmd":"theta","Y":[[1]],"v":[false]}', "bad real value False: a boolean is not a number"),
        ('{"cmd":"geodesic","k":[[1]],"lambdas":[1],"Z":[[0]],"t":true}',
         "bad real value True: a boolean is not a number"),
        ('{"cmd":"cayley","direction":"to_halfspace","W":[[false]]}',
         "bad complex value False: a boolean is not a number"),
        ('{"cmd":"factor","kind":"J_H_alpha","Y":[[1]],"lam":[1,0],"arg":[{"re":0,"im":true}]}',
         "bad complex value {'re': 0, 'im': True}: a boolean is not a number"),
        ('{"cmd":"equiv","Y1":[[1]],"Y2":[[1]],"tol":true}', "option tol must be a number"),
        ('{"cmd":"theta","Y":[[1]],"v":[0.1],"eps":false}', "option eps must be a number"),
        ('{"cmd":"cocycle","gamma":[[true,0],[0,1]]}', "expected integer, got True"),
        ('{"cmd":"ext-normal","Pi1":[[2]],"Pi2":[[3]],"sigma":[["1/2",true]]}',
         "boolean is not a rational"),
    ])
    def test_refused(self, run_cli, text, error):
        code, out = run_cli(text)
        assert code == 2
        assert json.loads(out) == {"status": "error", "error": error}

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
    def test_complex_flag_is_a_boolean(self, run_cli, value):
        # a string or a number is not a boolean, whatever bool() would make of it
        code, out = run_cli('{"cmd":"degenerate","complex":' + value + ','
                            '"params":[0.1,0.01,0.001],"matrices":[[[1]],[[1]],[[1]]]}')
        assert code == 2
        assert json.loads(out) == {"status": "error",
                                   "error": "field 'complex' must be a boolean"}


class TestUnreducibleForm:
    """diag(1e-12, 1) has more short vectors than the enumeration cap, yet it
    is reduced: reduction, which enumerates nothing, answers at once, and so
    does equivalence with itself.  Its canonical theta request puts the
    argument 1e11 cells away, so the factor of the translate overflows and
    is refused as not finite before any sum."""

    SKEWED = [[1e-12, 0], [0, 1]]
    ANSWERS = {
        "reduce": (0, {"status": "ok", "R": SKEWED, "A": [[1, 0], [0, 1]]}),
        "equiv": (0, {"status": "ok", "verdict": "EQUIVALENT", "tol": 1e-9,
                      "A": [[1, 0], [0, 1]]}),
        "theta": (2, {"status": "error", "error": "result is not finite: a value overflows"}),
    }

    @pytest.mark.parametrize("request_", [
        {"cmd": "reduce", "Y": SKEWED},
        {"cmd": "equiv", "Y1": SKEWED, "Y2": SKEWED},
        {"cmd": "theta", "Y": SKEWED, "v": [0.1, 0.2]},
    ])
    def test_bad_input_at_once(self, run_cli, request_):
        start = time.perf_counter()
        code, out = run_cli(json.dumps(request_))
        assert time.perf_counter() - start < 0.5
        assert (code, json.loads(out)) == self.ANSWERS[request_["cmd"]]

    def test_subnormal_form_is_refused_without_warning(self, run_cli):
        """diag(1e-320, 1): reduced, and answered without a warning."""
        for request_, answer in (
                ('{"cmd":"reduce","Y":[[1e-320,0],[0,1]]}',
                 {"status": "ok", "R": [[1e-320, 0.0], [0.0, 1.0]], "A": [[1, 0], [0, 1]]}),
                ('{"cmd":"equiv","Y1":[[1e-320,0],[0,1]],"Y2":[[1e-320,0],[0,1]]}',
                 {"status": "ok", "verdict": "EQUIVALENT", "tol": 1e-9, "A": [[1, 0], [0, 1]]})):
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out = run_cli(request_)
            assert time.perf_counter() - start < 0.5
            assert code == 0
            assert json.loads(out) == answer


_OM1 = '{"X":[[0]],"Y":[[1]]}'
# one request per command, each with one number that is not finite: a NaN,
# Infinity or overflowing literal, or "nan" where complex input is allowed
NON_FINITE = {
    "reduce": '{"cmd":"reduce","Y":[[NaN,0],[0,1]]}',
    "equiv": '{"cmd":"equiv","Y1":[[1]],"Y2":[[1]],"tol":NaN}',
    "classify-mod2": '{"cmd":"classify-mod2","N":[[1,0],[0,Infinity]]}',
    "invariants": '{"cmd":"invariants","g":NaN}',
    "sigma": '{"cmd":"sigma","M":[[1]],"Y":[[1e309]]}',
    "real-structure": '{"cmd":"real-structure","Omega":{"X":[[NaN]],"Y":[[1]]}}',
    "cayley": '{"cmd":"cayley","direction":"to_halfspace","W":[["nan"]]}',
    "act": '{"cmd":"act","kind":"gl","A":[[NaN]],"Y":[[1]]}',
    "jacobi-act": '{"cmd":"jacobi-act","M":[[1,0],[0,1]],"lam":[[NaN]],"mu":[[0]],'
                  f'"kappa":[[0]],"Omega":{_OM1},"Z":[[0]]}}',
    "theta": '{"cmd":"theta","Y":[[1]],"v":[Infinity]}',
    "factor": '{"cmd":"factor","kind":"J_H_alpha","Y":[[1]],"lam":[1,0],'
              '"arg":[{"re":0,"im":"nan"}]}',
    "distance": '{"cmd":"distance","Y0":[[1]],"V0":[[0]],"Y1":[[2]],"V1":[[1]],"A":NaN}',
    "geodesic": '{"cmd":"geodesic","k":[[1]],"lambdas":[1],"Z":[[0]],"t":1e309}',
    "iwasawa": '{"cmd":"iwasawa","Y":[[1,0],[0,-Infinity]],"r":1}',
    "ext-normal": '{"cmd":"ext-normal","Pi1":[[2]],"Pi2":[[3]],"sigma":[[1,NaN]]}',
    "ext-add": '{"cmd":"ext-add","Pi1":[[2]],"Pi2":[[3]],"sigma1":[[1,4]],'
               '"sigma2":[[Infinity,4]]}',
    "ext-equiv": '{"cmd":"ext-equiv","Pi1":[[0.5]],"Pi2":[[0.25]],"sigma1":[[0.1,1e309]],'
                 '"sigma2":[[0.1,0.2]]}',
    "degenerate": '{"cmd":"degenerate","params":[1,0.5,0.25],'
                  '"matrices":[[[NaN]],[[1]],[[1]]]}',
    "split-involution": '{"cmd":"split-involution","S":[[NaN,0],[0,1]]}',
    "cocycle": '{"cmd":"cocycle","gamma":[[1,0],[0,-Infinity]]}',
    "coboundary": '{"cmd":"coboundary","gamma":[[1e309,0],[0,1]]}',
    "fixed-locus": f'{{"cmd":"fixed-locus","gamma":[[1,0],[0,1]],"Omega":{_OM1},"tol":NaN}}',
}


def _cli_process(text: str, tmp_path) -> subprocess.CompletedProcess:
    """Run ``python -m realtori.cli`` on ``text`` in a child process."""
    src = tmp_path / "in.json"
    src.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "realtori.cli", "--input", str(src)],
                          capture_output=True, env=env, timeout=60, check=False)


class TestNonFiniteNumbers:
    def test_every_command_is_covered(self):
        assert set(NON_FINITE) == set(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(NON_FINITE))
    def test_input_is_refused(self, command, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(NON_FINITE[command], encoding="utf-8")
        assert cli.main(["--input", str(src)]) == 2
        captured = capsys.readouterr()
        answer = json.loads(captured.out)
        assert answer["status"] == "error"
        # a field message, integer and exact fields included
        assert "finite" in answer["error"]
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("command, error", [
        ("cocycle", "bad int value -inf: not finite"),
        ("ext-normal", "bad complex value nan: not finite"),
    ])
    def test_integer_and_exact_fields_name_the_value(self, run_cli, command, error):
        code, out = run_cli(NON_FINITE[command])
        assert code == 2
        assert json.loads(out) == {"status": "error", "error": error}

    @pytest.mark.parametrize("text", [
        '{"cmd":"act","kind":"gl","A":[[1e200]],"Y":[[1e200]]}',
        '{"cmd":"distance","Y0":[[1e-300]],"V0":[[0]],"Y1":[[1e300]],"V1":[[0]]}',
    ])
    def test_overflowing_result_is_bad_input(self, text, tmp_path, capsys):
        # in this process, where a numpy RuntimeWarning is an error
        src = tmp_path / "in.json"
        src.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"status": "error",
                                            "error": "result is not finite: a value overflows"}
        assert captured.err.splitlines() == ["input error: result is not finite: a value overflows"]

    @pytest.mark.parametrize("text", [
        '{"cmd":"geodesic","k":[[1]],"lambdas":[1],"Z":[[0]],"t":1000}',
        '{"cmd":"theta","Y":[[1]],"v":[1e300]}',
        '{"cmd":"jacobi-act","M":[[1,0],[0,1]],"lam":[[1e200]],"mu":[[0]],"kappa":[[0]],'
        '"Omega":{"X":[[0]],"Y":[[1e200]]},"Z":[[0]]}',
        '{"cmd":"act","kind":"glgh","A":[[1e200]],"a":[[0]],"Y":[[1e200]],"V":[[0]]}',
        '{"cmd":"sigma","M":[[0]],"Y":[[1e-320]]}',
        '{"cmd":"distance","Y0":[[1]],"V0":[[0]],"Y1":[[1e300]],"V1":[[1e300]]}',
        '{"cmd":"factor","kind":"I_B_alpha","Y":[[1e-300]],"lam":[1],"arg":[1e300]}',
        '{"cmd":"factor","kind":"J_H_alpha","Y":[[1e-300]],"lam":[1,1],"arg":[1e300]}',
        '{"cmd":"factor","kind":"I_alpha","Y":[[1e-300]],"lam":[10000000000],"arg":[1e300]}',
        # finite exponents beyond the range of math.exp and cmath.exp
        '{"cmd":"factor","kind":"I_alpha","Y":[[1e-300]],"lam":[1],"arg":[1e300]}',
        '{"cmd":"factor","kind":"I_B_rho","Pi":[[1]],"B":[[1]],"lam":[1],"arg":[1e300]}',
        '{"cmd":"factor","kind":"J_H_alpha","Y":[[1]],"lam":[1,0],"arg":[1e300]}',
        '{"cmd":"factor","kind":"I_B_alpha","Y":[[1]],"lam":[1],"arg":[1e300]}',
    ], ids=["geodesic", "theta", "jacobi-act", "act_glgh", "sigma", "distance",
            "factor_I_B_alpha", "factor_J_H_alpha",
            "factor_I_alpha", "factor_I_alpha_exponent", "factor_I_B_rho_exponent",
            "factor_J_H_alpha_exponent", "factor_I_B_alpha_exponent"])
    def test_overflow_is_refused_without_warning(self, text, tmp_path, capsys):
        # in this process a numpy RuntimeWarning is an error, and exits 1; the
        # result, or the value built from it, is refused as not finite
        src = tmp_path / "in.json"
        src.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(src)]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert "finite" in error
        assert captured.err.splitlines() == [f"input error: {error}"]

    @pytest.mark.parametrize("text", [
        '{"cmd":"theta","Pi":[[1e-200]],"B":[[1e-200]],"v":[1e300]}',
        '{"cmd":"theta","Pi":[[1e-200,0],[0,1]],"B":[[1,0],[0,1]],"v":[1e300,0.3]}',
        '{"cmd":"theta","Pi":[[1e-200,0],[0,1]],"B":[[1,0],[0,1]],"v":[0.1,0.3]}',
    ], ids=["theta_coordinates", "theta_coordinates_2d", "theta_in_the_cell"])
    def test_underflowed_gram_form_is_named(self, text, tmp_path, capsys):
        # the Gram form rounds to one with a zero diagonal entry, which has no
        # inverse: refused by that cause, not as an overflow, without a warning
        src = tmp_path / "in.json"
        src.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(src)]) == 2
        captured = capsys.readouterr()
        error = "Gram form is not invertible in floating point"
        assert json.loads(captured.out) == {"status": "error", "error": error}
        assert captured.err.splitlines() == [f"input error: {error}"]

    @pytest.mark.parametrize("text", [
        '{"cmd":"distance","Y0":[[1,0],[0,1e308]],"V0":[[0,0]],"Y1":[[1,0],[0,1]],"V1":[[0,0]]}',
        '{"cmd":"reduce","Y":[[1e308,0],[0,1]]}',
    ])
    def test_entries_too_large_to_symmetrize_are_bad_input(self, text, tmp_path, capsys):
        # finite, but M + tM overflows; refused in this process, where a numpy
        # RuntimeWarning is an error
        src = tmp_path / "in.json"
        src.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(src)]) == 2
        captured = capsys.readouterr()
        error = "SPD matrix must have entries of magnitude at most 8.988e+307"
        assert json.loads(captured.out) == {"status": "error", "error": error}
        assert captured.err.splitlines() == [f"input error: {error}"]

    def test_unsettled_distance_is_refused_at_once(self, tmp_path):
        # the path length is about 3e13, so the quadrature's absolute
        # tolerance is never met; the rule stops at 256 nodes
        start = time.perf_counter()
        proc = _cli_process('{"cmd":"distance","Y0":[[1]],"V0":[[0]],"Y1":[[1e-30]],'
                            '"V1":[[1]]}', tmp_path)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 2, proc.stderr
        assert "did not settle" in json.loads(proc.stdout)["error"]


class TestRequestLimits:
    @pytest.mark.parametrize("request_, expected", [
        ('{"cmd":"invariants","g":1000}', 0),
        ('{"cmd":"invariants","g":1001}', 2),
        ('{"cmd":"invariants","g":0}', 2),
        # an integral float in an integer field is that integer
        ('{"cmd":"classify-mod2","N":[[1.0,0],[0,1]]}', 0),
        ('{"cmd":"coboundary","gamma":[[0,1],[-1,0]],"bound":5}', 2),
        ('{"cmd":"coboundary","gamma":[[0,1],[-1,0]],"bound":6}', 2),
        ('{"cmd":"coboundary","gamma":[[0,1],[-1,0]],"bound":-1}', 2),
    ])
    def test_range(self, run_cli, request_, expected):
        code, out = run_cli(request_)
        assert code == expected
        if expected == 2:
            error = json.loads(out)["error"]
            assert "must be an integer in" in error or "option bound does not apply" in error

    def test_word_bound_option_is_checked(self, run_cli):
        code, _ = run_cli('{"cmd":"coboundary","gamma":[[0,1],[-1,0]]}', "--bound", "4")
        assert code == 2

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_j_is_no_coboundary(self, run_cli, g):
        J = np.block([[np.zeros((g, g), int), np.eye(g, dtype=int)],
                      [-np.eye(g, dtype=int), np.zeros((g, g), int)]])
        start = time.perf_counter()
        code, out = run_cli(json.dumps({"cmd": "coboundary", "gamma": J.tolist()}))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"status": "ok", "witness": None}

    def test_coboundary_above_g4_is_bad_input(self, run_cli):
        gamma = np.eye(10, dtype=int).tolist()
        code, out = run_cli(json.dumps({"cmd": "coboundary", "gamma": gamma}))
        assert code == 2
        assert "at most 8 x 8" in json.loads(out)["error"]


class TestGoldenReduce:
    def test_bytes_unchanged(self, run_cli):
        """66 seeded forms (see ``golden/make_reduce.py``), byte for byte."""
        golden = Path(__file__).parent / "golden"
        code, out = run_cli((golden / "reduce_in.json").read_text(encoding="utf-8"))
        assert code == 0
        assert out == (golden / "reduce_out.json").read_text(encoding="utf-8")

    def test_tie_bytes_unchanged(self, run_cli):
        """40 scaled tied integer forms (``make_reduce.py ties``), byte for byte."""
        golden = Path(__file__).parent / "golden"
        code, out = run_cli((golden / "reduce_ties_in.json").read_text(encoding="utf-8"))
        assert code == 0
        assert out == (golden / "reduce_ties_out.json").read_text(encoding="utf-8")


def _golden_reduce_answers():
    """(Y, R, A) of every answered golden ``reduce`` request: the two
    ``reduce`` files and the ``reduce`` cases of ``cli_in.json``."""
    golden = Path(__file__).parent / "golden"

    def read(name):
        return json.loads((golden / name).read_text(encoding="utf-8"))

    pairs = [(q, a) for name in ("reduce", "reduce_ties")
             for q, a in zip(read(f"{name}_in.json"), read(f"{name}_out.json"))]
    for case, answer in zip(read("cli_in.json"), read("cli_out.json")):
        if _command(case["input"]) == "reduce" and answer["code"] == 0:
            pairs.append((json.loads(case["input"]), json.loads(answer["output"])))
    # a positional command overrides "cmd", and the answer then holds no R
    return [(q["Y"], a["R"], a["A"]) for q, a in pairs if "R" in a]


class TestGoldenReducedForms:
    def test_R_is_the_correctly_rounded_exact_form(self):
        """Each golden R is A Y tA, Y read exactly and summed in Fractions,
        with every entry correctly rounded, and its diagonal is sorted."""
        answers = _golden_reduce_answers()
        assert len(answers) == 66 + 40 + 12
        for Y, R, A in answers:
            F = [[Fraction(x) for x in row] for row in Y]
            AF = [[sum(a * f for a, f in zip(row, col)) for col in zip(*F)] for row in A]
            exact = [[sum(x * a for x, a in zip(row, other)) for other in A] for row in AF]
            assert R == [[float(x) for x in row] for row in exact], (Y, A)
            assert all(R[k][k] <= R[k + 1][k + 1] for k in range(len(R) - 1)), (Y, A)


def _command(text: str):
    try:
        req = json.loads(text)
    except ValueError:
        return None
    return req.get("cmd") if isinstance(req, dict) else None


class TestGoldenCli:
    def test_every_command_unchanged(self, run_cli):
        """Seeded good and bad requests for every command (see ``golden/make_cli.py``),
        each run alone: exit code and output bytes."""
        golden = Path(__file__).parent / "golden"
        cases = json.loads((golden / "cli_in.json").read_text(encoding="utf-8"))
        expected = json.loads((golden / "cli_out.json").read_text(encoding="utf-8"))
        assert len(cases) == len(expected)
        assert set(cli.COMMANDS) <= {_command(c["input"]) for c in cases if not c["args"]}
        changed = []
        for i, (case, want) in enumerate(zip(cases, expected)):
            code, out = run_cli(case["input"], *case["args"])
            if {"code": code, "output": out} != want:
                changed.append((i, case["input"][:80], want["code"], code))
        assert not changed


def _matrix_paths(value, path=()):
    """Paths (keys and indices) of the matrix fields of a decoded request:
    the lists of rows, each row a list of entries that are not lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _matrix_paths(item, path + (key,))
    elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        if all(row and not any(isinstance(x, list) for x in row) for row in value):
            yield path
        else:
            for i, item in enumerate(value):
                yield from _matrix_paths(item, path + (i,))


def _exact(x) -> Fraction | None:
    # a number or "p/q" string entry read exactly, or None where it is neither
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        return None
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        return None


def _scaled_entry(x, factor: Fraction):
    # a number, a "p/q" string or a {"re":..., "im":...} entry times factor;
    # anything else as it is
    if isinstance(x, dict):
        return {key: _scaled_entry(v, factor) for key, v in x.items()}
    value = _exact(x)
    if value is None:
        return x
    return str(value * factor) if isinstance(x, str) else float(value * factor)


def _entry_size(x) -> float:
    # |x| of an entry, or 0 where it is not a number
    if isinstance(x, dict):
        return max(map(_entry_size, x.values()), default=0.0)
    value = _exact(x)
    return 0.0 if value is None else abs(float(value))


def _scaled_requests(size: float):
    """(golden index, path, args, request text) for each matrix field of each
    golden request that decodes to an object, the field scaled so that its
    largest entry has magnitude ``size``."""
    golden = Path(__file__).parent / "golden"
    for i, case in enumerate(json.loads((golden / "cli_in.json").read_text(encoding="utf-8"))):
        try:
            request = json.loads(case["input"])
        except ValueError:
            continue
        if not isinstance(request, dict):
            continue
        for path in _matrix_paths(request):
            scaled = json.loads(case["input"])
            *parents, last = path
            holder = scaled
            for key in parents:
                holder = holder[key]
            top = max(_entry_size(x) for row in holder[last] for x in row)
            if top > 0:
                factor = Fraction(size) / Fraction(top)
                holder[last] = [[_scaled_entry(x, factor) for x in row] for row in holder[last]]
                yield i, path, case["args"], json.dumps(scaled)


class TestScaledGoldenRequests:
    """Every golden request with one matrix field scaled to entries of 1e200
    or 1e308: an answer, a refusal or an undecided verdict (exit 0, 2 or 3),
    never an internal error, with at most its one "input error:" line on
    stderr.  In this process a numpy RuntimeWarning is an error, so a
    product that overflows unguarded shows as exit 1."""

    @pytest.mark.parametrize("size", [1e200, 1e308])
    def test_no_internal_error(self, size, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        bad, runs = [], 0
        for i, path, args, text in _scaled_requests(size):
            src.write_text(text, encoding="utf-8")
            code = cli.main([*args, "--input", str(src), "--output", str(dst)])
            err = capsys.readouterr().err.splitlines()
            runs += 1
            expected_err = 1 if code == 2 else 0
            if code not in (0, 2, 3) or len(err) != expected_err or not all(
                    line.startswith("input error: ") for line in err):
                bad.append((i, path, code, err))
        assert runs > 500
        assert not bad


class TestUndecodableInput:
    """json.loads errors other than JSONDecodeError are bad input too."""

    LONG = '{"cmd":"cocycle","gamma":[[1' + "0" * 5000 + "]]}"
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("text", [LONG, f"[{INVARIANTS},{LONG}]", DEEP],
                             ids=["long-literal", "long-literal-in-batch", "deep-nesting"])
    def test_bad_input(self, run_cli, text):
        code, out = run_cli(text)
        assert code == 2
        res = json.loads(out)
        assert res["status"] == "error" and res["error"].startswith("invalid JSON")


class TestExactEquiv:
    def test_close_integer_pair(self, run_cli):
        # written as integers; the minima 10^10 and 10^10 + 1 differ
        code, out = run_cli('{"cmd":"equiv","Y1":[[10000000000,0],[0,10000000002]],'
                            '"Y2":[[10000000001,0],[0,10000000001]]}')
        assert code == 0
        assert json.loads(out)["verdict"] == "INEQUIVALENT"


class TestEquivBound:
    """``bound`` caps the candidate search for both input forms; the reduced
    diagonals agree, so the successive minima do not decide first."""

    Y1, Y2 = [[2, 0], [0, 3.5]], [[2, 0.5], [0.5, 3.5]]
    FORMS = [{"Y1": Y1, "Y2": Y2},
             {"Omega1": {"X": [[0, 0], [0, 0]], "Y": Y1},
              "Omega2": {"X": [[0, 0], [0, 0]], "Y": Y2}}]

    @pytest.mark.parametrize("form", FORMS, ids=["Y", "Omega"])
    def test_cap_of_one_is_undecided(self, run_cli, form):
        code, out = run_cli(json.dumps({"cmd": "equiv", **form}))
        assert code == 0 and json.loads(out)["verdict"] == "INEQUIVALENT"
        for request_, args in [({"cmd": "equiv", **form, "bound": 1}, ()),
                               ({"cmd": "equiv", **form}, ("--bound", "1"))]:
            code, out = run_cli(json.dumps(request_), *args)
            assert code == 3
            res = json.loads(out)
            assert res["status"] == "undecided" and res["verdict"] == "UNDECIDED"


class TestBatchIsolation:
    def test_good_entries_survive_a_bad_one(self, run_cli):
        singles = [run_cli(t)[1].rstrip("\n") for t in (INVARIANTS, NOT_SPD)]
        code, out = run_cli(f"[{INVARIANTS},{NOT_SPD}]")
        assert code == 2
        assert out == "[" + ",".join(singles) + "]\n"
        good, bad = json.loads(out)
        assert good["status"] == "ok"
        assert bad == {"status": "error", "error": "matrix is not positive definite"}

    def test_non_object_item_and_unknown_command(self, run_cli):
        code, out = run_cli(f'[{INVARIANTS},5,{{"cmd":"nope"}},{INVARIANTS}]')
        assert code == 2
        first, item, unknown, last = json.loads(out)
        assert first == last and first["status"] == "ok"
        assert item == {"status": "error", "error": "request payload must be a JSON object"}
        assert unknown["status"] == "error" and "nope" in unknown["error"]

    def test_internal_error_entry(self, run_cli, monkeypatch):
        def boom(req):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "cocycle", boom)
        code, out = run_cli(f'[{INVARIANTS},{{"cmd":"cocycle","gamma":[[1]]}},{NOT_SPD}]')
        assert code == 1
        assert json.loads(out)[1] == {"status": "error", "error": "internal: boom"}

    @pytest.mark.parametrize("items, expected", [
        ([], 0),
        ([INVARIANTS], 0),
        ([INVARIANTS, UNDECIDED], 3),
        ([UNDECIDED, NOT_SPD, INVARIANTS], 2),
        ([NOT_SPD, UNDECIDED], 2),
    ])
    def test_exit_code_is_most_severe(self, run_cli, items, expected):
        code, out = run_cli("[" + ",".join(items) + "]")
        assert code == expected
        assert len(json.loads(out)) == len(items)


# four samples diag(1 + xi, 1.5 / xi^2): the second index diverges, t = 1
_DIVERGING = [[[1 + xi, 0], [0, 1.5 / xi ** 2]] for xi in (0.1, 0.01, 0.001, 0.0001)]


def _counting(monkeypatch, module, name: str) -> list:
    """Record each call of ``module.name`` in the returned list, through
    every binding of it in the package."""
    fn = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "realtori" and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


_OMEGA = '{"X":[[0.5]],"Y":[[2]]}'
# one request per command (two for act, cayley, equiv and degenerate), and
# its calls of each validator; a validator not named is not called
_VALIDATED = {
    "reduce": ('{"cmd":"reduce","Y":[[2,1],[1,2]]}', {"_symmetric": 1, "_cholesky": 1}),
    # each form, once, in minkowski_reduce; the forms as exact integers
    "equiv_Y": ('{"cmd":"equiv","Y1":[[2,1],[1,2]],"Y2":[[2,-1],[-1,2]]}',
                {"_symmetric": 2, "_cholesky": 2, "int_matrix": 2}),
    # each point, then its Im Omega, proved definite only in minkowski_reduce;
    # 2 Re Omega and Im Omega of each point as exact integers
    "equiv_Omega": ('{"cmd":"equiv","Omega1":{"X":[[0.5,0],[0,0]],"Y":[[2,1],[1,2]]},'
                    '"Omega2":{"X":[[0.5,0],[0,0]],"Y":[[2,-1],[-1,2]]}}',
                    {"_symmetric": 4, "_cholesky": 2, "int_matrix": 4}),
    "classify-mod2": ('{"cmd":"classify-mod2","N":[[0,1,0],[1,0,0],[0,0,1]]}',
                      {"int_matrix": 1}),
    "invariants": (INVARIANTS, {}),
    # M; Y, then the image
    "sigma": ('{"cmd":"sigma","M":[[1,0],[0,1]],"Y":[[1,0],[0,1]]}',
              {"_symmetric": 2, "_cholesky": 2, "int_matrix": 1}),
    # Omega; 2 Re Omega
    "real-structure": ('{"cmd":"real-structure","Omega":' + _OMEGA + '}',
                       {"_symmetric": 1, "_cholesky": 1, "int_matrix": 1}),
    # the point, then its image (a disk point's I - conj(W) W is proved
    # definite as an SPD form is)
    "cayley_to_disk": ('{"cmd":"cayley","direction":"to_disk","Omega":' + _OMEGA + '}',
                       {"_symmetric": 2, "_cholesky": 2}),
    "cayley_to_halfspace": ('{"cmd":"cayley","direction":"to_halfspace","W":[[0.5]]}',
                            {"_symmetric": 2, "_cholesky": 2}),
    "act_gl": ('{"cmd":"act","kind":"gl","A":[[1,1],[0,1]],"Y":[[2,1],[1,2]]}',
               {"_symmetric": 1, "_cholesky": 1}),
    "act_sp": ('{"cmd":"act","kind":"sp","M":[[1,1],[0,1]],"Omega":' + _OMEGA + '}',
               {"_symmetric": 2, "_cholesky": 2}),
    "act_disk": ('{"cmd":"act","kind":"disk","M":[[1,1],[0,1]],"W":[[0.1]]}',
                 {"_symmetric": 2, "_cholesky": 2}),
    "act_gamma_star": ('{"cmd":"act","kind":"gamma_star","M":[[1,1],[0,1]],"Omega":'
                       + _OMEGA + '}', {"_symmetric": 2, "_cholesky": 2, "int_matrix": 1}),
    "act_glgh": ('{"cmd":"act","kind":"glgh","A":[[2]],"a":[[1]],"Y":[[1]],"V":[[0]]}',
                 {"_symmetric": 2, "_cholesky": 2}),
    # kappa + mu t(lam), then the point and its image
    "jacobi-act": ('{"cmd":"jacobi-act","M":[[-1,1],[-1,0]],"lam":[[-0.4]],"mu":[[0.9]],'
                   '"kappa":[[-0.2]],"Omega":{"X":[[0.05]],"Y":[[0.84]]},'
                   '"Z":[[{"re":-0.6,"im":-1.4}]]}', {"_symmetric": 3, "_cholesky": 2}),
    # Y, once: the section is summed from Y, and Y^-1 is not formed
    "theta": ('{"cmd":"theta","Y":[[1]],"v":[0.3]}', {"_symmetric": 1, "_cholesky": 1}),
    # as theta; lam
    "factor": ('{"cmd":"factor","kind":"I_alpha","Y":[[1]],"lam":[1],"arg":[0.1]}',
               {"_symmetric": 1, "_cholesky": 1, "int_matrix": 1}),
    # Y0, Y1, then the whitened pencil
    "distance": ('{"cmd":"distance","Y0":[[2,1],[1,2]],"V0":[[0,1]],"Y1":[[1,0],[0,3]],'
                 '"V1":[[1,0]]}', {"_symmetric": 2, "_cholesky": 3}),
    "geodesic": ('{"cmd":"geodesic","k":[[1]],"lambdas":[1],"Z":[[1]],"t":0.5}',
                 {"_symmetric": 1, "_cholesky": 1}),
    "iwasawa": ('{"cmd":"iwasawa","Y":[[2,1],[1,2]],"r":1}', {"_symmetric": 1, "_cholesky": 1}),
    "ext-normal": ('{"cmd":"ext-normal","Pi1":[[1]],"Pi2":[[2]],"sigma":[[3,1]]}', {}),
    "ext-add": ('{"cmd":"ext-add","Pi1":[[1]],"Pi2":[[2]],"sigma1":[[3,1]],'
                '"sigma2":[[1,0]]}', {}),
    # the lattice generators, then the difference of normal forms
    "ext-equiv": ('{"cmd":"ext-equiv","Pi1":[[1]],"Pi2":[[2]],"sigma1":[[3,1]],'
                  '"sigma2":[[1,0]]}', {"int_matrix": 2}),
    # four samples, then the core of the limit
    "degenerate_real": (json.dumps({"cmd": "degenerate", "params": [0.1, 0.01, 0.001, 0.0001],
                                    "matrices": _DIVERGING}), {"_symmetric": 5, "_cholesky": 5}),
    "degenerate_complex": (json.dumps({"cmd": "degenerate", "complex": True,
                                       "params": [0.1, 0.01, 0.001, 0.0001],
                                       "matrices": [{"X": [[0.5, 0], [0, 0]], "Y": Y}
                                                    for Y in _DIVERGING]}),
                           {"_symmetric": 5, "_cholesky": 5}),
    "split-involution": ('{"cmd":"split-involution","S":[[0,1],[1,0]]}', {"int_matrix": 1}),
    "cocycle": ('{"cmd":"cocycle","gamma":[[1,2],[0,1]]}', {"int_matrix": 1}),
    "coboundary": ('{"cmd":"coboundary","gamma":[[1,2],[0,1]]}', {"int_matrix": 1}),
    "fixed-locus": ('{"cmd":"fixed-locus","gamma":[[-1,0],[0,-1]],'
                    '"Omega":{"X":[[0]],"Y":[[1]]}}', {"_symmetric": 2, "_cholesky": 2}),
}


def _rank_deficient(g: int, draws: int) -> list[list[list[float]]]:
    """B tB for integer B of shape g x (g - 1), entries in -3..3: every one
    singular, and a plain Cholesky factorization completes on many."""
    rng = np.random.default_rng(0)
    forms = [B @ B.T for B in rng.integers(-3, 4, size=(draws, g, g - 1))]
    return [Y.astype(float).tolist() for Y in forms]


def _spd_requests(Y: list) -> list[dict]:
    # one request per command that takes an SPD form (two for equiv)
    g = len(Y)
    I, V, om = np.eye(g).tolist(), [[0.5] * g], {"X": np.zeros((g, g)).tolist(), "Y": Y}
    return [
        {"cmd": "reduce", "Y": Y},
        {"cmd": "equiv", "Y1": Y, "Y2": Y},
        {"cmd": "equiv", "Omega1": om, "Omega2": om},
        {"cmd": "distance", "Y0": I, "V0": V, "Y1": Y, "V1": V},
        {"cmd": "iwasawa", "Y": Y, "r": 1},
        {"cmd": "act", "kind": "gl", "A": I, "Y": Y},
        {"cmd": "cayley", "direction": "to_disk", "Omega": om},
        {"cmd": "theta", "Y": Y, "v": [0.1] * g},
        {"cmd": "factor", "kind": "I_alpha", "Y": Y, "lam": [1] + [0] * (g - 1), "arg": [0.1] * g},
    ]


class TestRankDeficientForms:
    """Singular forms that rounding lets through a plain Cholesky
    factorization: validation refuses every one, and so every command that
    takes an SPD form exits 2, never 0 with an answer or 1."""

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_validation_accepts_none(self, g):
        for Y in _rank_deficient(g, 2000):
            with pytest.raises(ValueError):
                spdcone.require_spd(Y)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_commands_refuse_them(self, run_cli, g):
        for Y in _rank_deficient(g, 25):
            for request_ in _spd_requests(Y):
                code, out = run_cli(json.dumps(request_))
                assert code == 2, (request_, out)
                assert json.loads(out)["status"] == "error"

    def test_ill_conditioned_forms_never_exit_1(self, run_cli):
        """Forms up to cond 1e18, moved off the reduced domain: each command
        answers or refuses them as bad input (the distance pencil of such a
        form exited 1 when rounding left it indefinite)."""
        rng = np.random.default_rng(1)
        for k in range(24):
            g = 2 + k % 3
            Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
            U = exactlinalg.random_unimodular(g, rng, max_entry=3).astype(float)
            M = U @ (Q * np.geomspace(1.0, 10.0 ** rng.uniform(12, 18), g)) @ Q.T @ U.T
            for request_ in _spd_requests((0.5 * (M + M.T)).tolist()):
                code, out = run_cli(json.dumps(request_))
                assert code in (0, 2, 3), (request_, out)

    def test_the_singular_form_of_the_golden_cases(self, run_cli):
        Y = [[2, 1, 1], [1, 1, 0], [1, 0, 1]]
        for request_ in _spd_requests(Y):
            code, out = run_cli(json.dumps(request_))
            assert (code, json.loads(out)) == (
                2, {"status": "error", "error": "matrix is not positive definite"})


class TestWorkDoneOnce:
    """Each input is validated, and each family sample factored, once; each
    GF(2) matrix is built, and each symplectic matrix checked, once per
    public call."""

    def test_every_command_is_covered(self):
        assert {json.loads(text)["cmd"] for text, _ in _VALIDATED.values()} == set(cli.COMMANDS)

    @pytest.mark.parametrize("request_", list(_VALIDATED))
    def test_validators(self, run_cli, monkeypatch, request_):
        text, expected = _VALIDATED[request_]
        calls = {name: _counting(monkeypatch, module, name) for module, name in
                 ((spdcone, "_symmetric"), (spdcone, "_cholesky"), (exactlinalg, "int_matrix"))}
        code, out = run_cli(text)
        assert code == 0 and json.loads(out)["status"] == "ok"
        assert {name: len(c) for name, c in calls.items() if c} == expected

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("point", [False, True], ids=["Y", "Omega"])
    def test_equiv_reduces_each_form_once_through_the_public_binding(self, run_cli, monkeypatch,
                                                                     g, point):
        """The one proof that a form is definite is ``moduli.minkowski_reduce``,
        the public binding that the benchmark's tracer times."""
        reduced, reduce = [], moduli.minkowski_reduce
        monkeypatch.setattr(moduli, "minkowski_reduce", lambda Y: reduced.append(1) or reduce(Y))
        Y = (np.eye(g) + 1).tolist()
        form = {"X": np.zeros((g, g)).tolist(), "Y": Y} if point else Y
        key = "Omega" if point else "Y"
        code, out = run_cli(json.dumps({"cmd": "equiv", key + "1": form, key + "2": form}))
        assert code == 0 and json.loads(out)["verdict"] == "EQUIVALENT"
        assert len(reduced) == 2

    def test_classify_mod2_converts_to_gf2_once(self, run_cli, monkeypatch):
        converted = _counting(monkeypatch, exactlinalg, "gf2_matrix")
        code, out = run_cli('{"cmd":"classify-mod2","N":[[0,1,0],[1,0,0],[0,0,1]]}')
        assert code == 0 and json.loads(out)["lambda"] == 3
        # in mod2_standard_form; lambda and i are read from S
        assert len(converted) == 1

    @pytest.mark.parametrize("cmd, checks", [("cocycle", 1), ("coboundary", 2)])
    def test_symplectic_checks(self, run_cli, monkeypatch, cmd, checks):
        checked = _counting(monkeypatch, exactlinalg, "is_symplectic")
        code, out = run_cli(json.dumps({"cmd": cmd, "gamma": [[1, 2], [0, 1]]}))
        assert code == 0 and json.loads(out)["status"] == "ok"
        # gamma in is_cocycle, then the witness in symplectic_inverse
        assert len(checked) == checks

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_degenerate_factors_each_sample_once(self, run_cli, monkeypatch, complex_):
        factored = _counting(monkeypatch, spdcone, "_cholesky")
        mats = [{"X": [[0.5, 0], [0, 0]], "Y": Y} for Y in _DIVERGING] if complex_ else _DIVERGING
        code, out = run_cli(json.dumps({"cmd": "degenerate", "complex": complex_,
                                        "params": [0.1, 0.01, 0.001, 0.0001], "matrices": mats}))
        assert code == 0 and json.loads(out)["t"] == 1
        # four samples, then the core of the limit
        assert len(factored) == 5

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("small_first", [False, True], ids=["large_first", "small_first"])
    def test_samples_of_different_sizes_are_bad_input(self, run_cli, complex_, small_first):
        mats = [[[2, 0], [0, 2]], [[2]], [[2, 0], [0, 2]]]
        if small_first:
            mats[:2] = mats[1::-1]
        if complex_:
            mats = [{"X": [[0] * len(Y)] * len(Y), "Y": Y} for Y in mats]
        code, out = run_cli(json.dumps({"cmd": "degenerate", "complex": complex_,
                                        "params": [0.1, 0.01, 0.001], "matrices": mats}))
        assert code == 2
        assert json.loads(out) == {"status": "error",
                                   "error": "all samples must have the same shape"}


def _theta_requests() -> list[str]:
    """Theta requests at g = 2..4, canonical and explicit, half on sheared lattices."""
    rng = np.random.default_rng(30)
    texts = []
    for g in (2, 3, 4):
        for k in range(4):
            U = np.eye(g, dtype=int)
            if k % 2:
                U[0, 1] = 4
                if g > 2:
                    U[2, 1] = -2
            Q0 = np.diag(rng.uniform(1.0, 2.0, size=g))
            v = rng.uniform(-1.5, 1.5, size=g).tolist()
            if k < 2:
                req = {"cmd": "theta", "Y": (U.T @ Q0 @ U).tolist(), "v": v}
            else:
                phases = rng.uniform(0, 2 * np.pi, size=g)
                req = {"cmd": "theta", "Pi": (np.eye(g) + 0.1 * rng.normal(size=(g, g))
                                              ).tolist(),
                       "B": (U.T @ Q0 @ U).tolist(), "v": v,
                       "rho": [{"re": float(np.cos(a)), "im": float(np.sin(a))}
                               for a in phases]}
            texts.append(json.dumps(req))
    return texts


class TestByteDeterminism:
    def test_cli_process_matches_in_process_bytes(self, tmp_path):
        texts = _theta_requests()
        expected = [cli.canonical_json(cli.dispatch(cli.parse_request(t))[0]) for t in texts]
        assert all(json.loads(e)["status"] == "ok" for e in expected)
        src = tmp_path / "batch.json"
        src.write_text("[" + ",".join(texts) + "]", encoding="utf-8")
        # the child loads BLAS single-threaded, whatever this process uses
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "realtori.cli", "--input", str(src)],
                              capture_output=True, env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("[" + ",".join(expected) + "]\n").encode("utf-8")
