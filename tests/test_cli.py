import json

import pytest

from realtori import cli

INVARIANTS = '{"cmd":"invariants","g":2}'
NOT_SPD = '{"cmd":"reduce","Y":[[1,2],[2,1]]}'
# J is a cocycle that is no coboundary of the empty word: undecided at bound 0
UNDECIDED = '{"cmd":"coboundary","gamma":[[0,1],[-1,0]],"bound":0}'


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

    def test_float_ext_equiv_is_bad_input(self, run_cli):
        code, out = run_cli('{"cmd":"ext-equiv","Pi1":[[0.5]],"Pi2":[[0.3333]],'
                            '"sigma1":[[0.1,0.2]],"sigma2":[[0.1,1.2]]}')
        assert code == 2
        assert json.loads(out)["status"] == "error"

    def test_undecodable_json(self, run_cli):
        code, out = run_cli("[" + INVARIANTS + ",")
        assert code == 2
        err = json.loads(out)
        assert err["status"] == "error" and err["error"].startswith("invalid JSON")


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
