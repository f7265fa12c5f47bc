#!/usr/bin/env python3
"""One-process A/B timing of a committed revision against the working tree.

Run from the root of a checkout:

    python benchmarks/ab.py --base HEAD --workload theta --seeds 1,2,3 --rounds 30

The ``src/`` of ``--base`` is exported with ``git archive`` into a temporary
directory and imported as the package ``realtori_base``; the working tree's
``src/`` is imported as ``realtori_work``.  Both answer the same batch of
``perfbench/workloads.py`` requests through ``perfbench/run.py``'s
``call`` (parse, dispatch, canonical JSON), in one process pinned to one
core.  Each round sends every request to both trees, one after the other,
alternating which goes first, so drift of the machine's speed falls on both
alike.  The script prints which answers
differ in bytes, by command, with the largest relative change of a number
(a complex number as one value), then the median of the per-round time
ratios work / base with their quartiles, and in how many rounds the
working tree was faster: for the whole batch, then for the requests of each
command.  Last, for each tree, it prints the p50 and p90 latency as
``perfbench/run.py`` computes them: percentiles of each request's median
time over the rounds.  An A/B of HEAD against an unchanged tree reads 1.00
within a few percent.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def load(src: Path, name: str):
    """Import the package in ``src/realtori`` as ``name``; returns its ``cli``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "realtori" / "__init__.py", submodule_search_locations=[str(src / "realtori")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def export(rev: str, dest: Path) -> None:
    """Write the ``src/`` of revision ``rev`` under ``dest``."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def largest_change(a, b) -> float:
    """Largest relative difference between the numbers of two JSON values,
    inf where their structure differs."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        if a.keys() == {"re", "im"}:
            x, y = complex(a["re"], a["im"]), complex(b["re"], b["im"])
            return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        return max((largest_change(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((largest_change(x, y) for x, y in zip(a, b)), default=0.0)
    if type(a) in (int, float) and type(b) in (int, float) and a != b:
        return abs(a - b) / max(abs(a), abs(b))
    return 0.0 if a == b else math.inf


def timed_round(base, work, texts, cmds, first: int, latencies) -> dict[str | None, float]:
    """Time work / base over one pass of each tree, request by request, the
    tree that answers first alternating from one request to the next; returns
    the ratio for each command in ``cmds`` (the command of each text) and,
    under None, for the whole batch.  Appends each request's seconds to
    ``latencies[side][i]``, side 0 for base and 1 for work."""
    gc.collect()
    spent = defaultdict(lambda: [0.0, 0.0])
    clock = time.perf_counter
    for i, (text, cmd) in enumerate(zip(texts, cmds)):
        for side in ((i + first) % 2, (i + first + 1) % 2):
            start = clock()
            run.call((base, work)[side], text)
            took = clock() - start
            spent[cmd][side] += took
            latencies[side][i].append(took)
    spent[None] = [sum(s[side] for s in spent.values()) for side in (0, 1)]
    return {cmd: s[1] / s[0] for cmd, s in spent.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="revision timed against the working tree")
    ap.add_argument("--workload", default="theta", choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    texts = [item.text() for seed in seeds for item in workloads.generate(args.workload, seed)]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp))
        base = load(Path(tmp) / "src", "realtori_base")
    work = load(ROOT / "src", "realtori_work")

    base_outs, base_codes = run.run_pass(base, texts)
    work_outs, work_codes = run.run_pass(work, texts)
    cmds = [json.loads(text)["cmd"] for text in texts]
    moved, total, worst = Counter(), Counter(cmds), 0.0
    for cmd, x, y, cx, cy in zip(cmds, base_outs, work_outs, base_codes, work_codes):
        if x != y or cx != cy:
            moved[cmd] += 1
            worst = max(worst, largest_change(json.loads(x), json.loads(y)) if cx == cy else math.inf)
    print(f"{args.workload}, seeds {args.seeds}: {len(texts)} requests, base {args.base}")
    if moved:
        counts = ", ".join(f"{cmd} {moved[cmd]}/{total[cmd]}" for cmd in sorted(moved))
        print(f"answers that differ in bytes: {counts}; largest relative change {worst:.2g}")
    else:
        print("every answer is byte-identical")

    latencies = [[[] for _ in texts] for _ in range(2)]
    rounds = [timed_round(base, work, texts, cmds, r % 2, latencies) for r in range(args.rounds)]
    for cmd in [None, *sorted(total)]:
        ratios = [r[cmd] for r in rounds]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        wins = sum(x < 1.0 for x in ratios)
        what = "time work/base" if cmd is None else f"  {cmd} ({total[cmd]} requests)"
        print(f"{what} over {len(ratios)} rounds: median {median:.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}); work faster in {wins} of {len(ratios)}")
    for side, tree in enumerate(("base", "work")):
        ordered = sorted(statistics.median(times) for times in latencies[side])
        p50, p90 = (1e3 * run.percentile(ordered, q) for q in (0.50, 0.90))
        print(f"{tree} latency over per-request medians: p50 {p50:.3f} ms, p90 {p90:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
