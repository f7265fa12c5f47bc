"""Fast tests of the benchmark's own parts: python3 -m pytest -q perfbench"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_repeats_for_a_seed(workload):
    a = [it.text() for it in workloads.generate(workload, 7)]
    b = [it.text() for it in workloads.generate(workload, 7)]
    c = [it.text() for it in workloads.generate(workload, 8)]
    assert a == b
    assert a != c
    assert len(a) >= 100


def test_mixed_covers_every_command():
    import realtori.cli as cli

    cmds = {it.cmd for it in workloads.generate("mixed", 1)}
    assert cmds == set(cli.COMMANDS)


def _answers():
    """One (item, answer) pair per check, answered by the package in process."""
    import realtori.cli as cli

    seen = {}
    for workload in ("mixed", "equiv"):
        for item in workloads.generate(workload, 3):
            if item.check in seen:
                continue
            out, code = run.call(cli, item.text())
            answer = json.loads(out)
            if code == 0 and oracles.check(item, answer) is None:
                seen[item.check] = (item, answer)
    return seen


ANSWERS = _answers()


def _corrupt(value):
    """Change the first number or flag found in an answer field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.01 + 0.1
    if isinstance(value, str):
        return {"EQUIVALENT": "INEQUIVALENT", "INEQUIVALENT": "EQUIVALENT",
                "I": "II", "II": "I", "lower": "upper", "upper": "lower"}.get(value, value + "1")
    if isinstance(value, list):
        return [_corrupt(value[0])] + value[1:]
    if isinstance(value, dict):
        key = "re" if "re" in value else next(iter(value))
        return {**value, key: _corrupt(value[key])}
    raise TypeError(value)


FIELDS = {
    "theta": "value", "factor": "value", "reduce": "A", "equiv_Y": "A",
    "equiv_ppav": "A", "classify-mod2": "A", "invariants": "invariants", "sigma": "image",
    "real-structure": "M", "split-involution": "p", "cocycle": "is_cocycle",
    "coboundary": "witness", "cayley": None, "act": None, "jacobi-act": "Z",
    "fixed-locus": "member", "distance": "value", "geodesic": "V", "iwasawa": "H",
    "degenerate": "Y_diamond", "ext-normal": "alpha", "ext-add": "sigma", "ext-equiv": "verdict",
}


@pytest.mark.parametrize("check", sorted(FIELDS))
def test_oracle_rejects_a_corrupted_answer(check):
    item, answer = ANSWERS[check]
    field = FIELDS[check] or next(k for k in ("W", "Omega", "Y") if k in answer)
    if field in answer:
        bad = copy.deepcopy(answer)
        bad[field] = _corrupt(bad[field])
    else:  # an INEQUIVALENT verdict carries no witness
        bad = {**answer, "verdict": "EQUIVALENT", "A": [[1, 0], [0, 1]]}
    assert oracles.check(item, bad) is not None
    assert oracles.check(item, {**answer, "status": "error"}) is not None


def test_every_check_has_a_passing_sample():
    assert set(ANSWERS) == set(FIELDS)


def test_wrappers_restore_the_original_functions():
    import realtori
    import realtori.cli as cli
    import realtori.moduli as moduli
    import realtori.spdcone as spdcone

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "realtori"]
    before = {id(m): dict(vars(m)) for m in modules}
    commands = dict(cli.COMMANDS)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, realtori, modules):
        assert spdcone.quadratic_short_vectors is not before[id(spdcone)]["quadratic_short_vectors"]
        # the name moduli imported with "from .spdcone import ..." is wrapped too
        assert moduli.quadratic_short_vectors.__wrapped__ is \
            before[id(spdcone)]["quadratic_short_vectors"]
        item = next(it for it in workloads.generate("equiv", 1) if it.cmd == "equiv")
        tracer.traced_call(run.call, cli, item.text())
    for m in modules:
        assert all(vars(m)[k] is v for k, v in before[id(m)].items())
    assert cli.COMMANDS == commands
    spans = tracer.flush()
    layers = {s[3] for s in spans}
    assert {"request", "cli.handler", "moduli.equivalent", "spdcone.minkowski_reduce"} <= layers
    assert sum(tracer.self_ns.values()) == tracer.request_ns
