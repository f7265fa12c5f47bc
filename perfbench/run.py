#!/usr/bin/env python3
"""Closed-loop benchmark of the realtori JSON front end.

One caller sends the next request only after the previous one has been
answered; nothing runs concurrently.  Run from the root of a checkout:

    python3 perfbench/run.py --workload theta --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_LAUNCHES = 5
MIN_CLI_RUNS = 3  # then more until they took half of --seconds
CLI_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def call(cli, text: str) -> tuple[str, int]:
    """One request through the public entry points, with the CLI's exit codes."""
    try:
        result, code = cli.dispatch(cli.parse_request(text))
        return cli.canonical_json(result), code
    except cli.InputError as exc:
        return cli.canonical_json({"status": "error", "error": str(exc)}), 2
    except Exception as exc:  # the CLI reports these as internal errors, exit 1
        return cli.canonical_json({"status": "error", "error": f"internal: {exc}"}), 1


def run_pass(cli, texts, intervals=None, tracer=None):
    """Send every request once, in order; ``intervals`` collects (start, end)."""
    outs, codes = [], []
    clock = time.perf_counter
    for text in texts:
        t0 = clock()
        out, code = tracer.traced_call(call, cli, text) if tracer else call(cli, text)
        if intervals is not None:
            intervals.append((t0, clock()))
        outs.append(out)
        codes.append(code)
    return outs, codes


def window(cli, texts, seconds, reference, failures, tracer=None):
    """Run whole passes over the batch for about ``seconds`` of wall time.

    Returns (rescaled latencies, passes, spans of the last pass).  An output
    that differs from the warm-up pass marks its request failed.
    """
    intervals = []
    spans, passes = [], 0
    with speed.Ticker() as ticker:
        t0 = time.perf_counter()
        while passes == 0 or time.perf_counter() - t0 < seconds:
            passes += 1
            outs, _ = run_pass(cli, texts, intervals, tracer)
            if tracer is not None:
                spans = tracer.flush()
            for i, (a, b) in enumerate(zip(outs, reference)):
                if a != b:
                    failures.setdefault(i, "output bytes differ between passes")
    return ticker.rescale(intervals), passes, spans


def judge(items, outs, codes) -> tuple[dict[int, str], set[int]]:
    """Failure reason per request index, and the indices answered UNDECIDED."""
    failures, undecided = {}, set()
    for i, (item, out, code) in enumerate(zip(items, outs, codes)):
        if code == 3 and item.verdict:
            undecided.add(i)
        elif code != 0:
            failures[i] = f"{item.cmd}: exit {code}: {json.loads(out).get('error', '')[:120]}"
        else:
            reason = oracles.check(item, json.loads(out))
            if reason:
                failures[i] = reason
    return failures, undecided


def _wait(proc, timeout):
    """Reap ``proc`` with its resource usage; kills it after ``timeout`` seconds."""
    box = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        box["code"] = os.waitstatus_to_exitcode(status)
        box["usage"] = usage

    t = threading.Thread(target=reap)
    t.start()
    t.join(timeout)
    if t.is_alive():
        proc.kill()
        t.join()
    proc.returncode = box["code"]
    return box["code"], box["usage"]


def cli_batch(texts, tag):
    """One CLI process over the whole batch, with the reference ticker inside.

    Returns (exit code, rescaled seconds, raw seconds, peak RSS MB, output).
    """
    batch = OUT / f"batch-{tag}.json"
    result = OUT / f"result-{tag}.json"
    ticks = OUT / f"ticks-{tag}.json"
    batch.write_text("[" + ",".join(texts) + "]", encoding="utf-8")
    for stale in (result, ticks):
        if stale.exists():
            stale.unlink()
    cmd = [sys.executable, str(HERE / "ticked_cli.py"), "--input", str(batch),
           "--output", str(result)]
    env = {**_env(), "PERFBENCH_TICKS": str(ticks)}
    around = speed.Ticker()
    for _ in range(3):
        around.sample()
    with open(OUT / f"stderr-{tag}.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc, CLI_TIMEOUT_S)
        t1 = time.perf_counter()
    for _ in range(3):
        around.sample()
    inside = json.loads(ticks.read_text(encoding="utf-8")) if ticks.exists() else []
    ticker = speed.Ticker(around.samples + [tuple(s) for s in inside])
    # rescale the stretches between the child's ticks one by one
    cuts = [t0] + sorted(t for t, _ in inside if t0 < t < t1) + [t1]
    scaled = sum(ticker.rescale(list(zip(cuts, cuts[1:]))))
    text = result.read_text(encoding="utf-8") if result.exists() else ""
    return code, scaled, t1 - t0, usage.ru_maxrss / 1024.0, text


def setup_time() -> float:
    """Median rescaled time of a fresh interpreter importing realtori.cli."""
    cmd = [sys.executable, "-c", "import realtori.cli"]

    def launch():
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=60,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)

    launch()  # writes the bytecode cache on a fresh checkout
    return statistics.median(speed.scaled_run(launch) for _ in range(SETUP_LAUNCHES))


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(cli, items, texts, reference, failures, undecided, args, summary):
    latencies, passes, _ = window(cli, texts, args.seconds, reference, failures)
    expected = "[" + ",".join(reference) + "]\n"
    cli_runs = []
    while len(cli_runs) < MIN_CLI_RUNS or sum(r[1] for r in cli_runs) < args.seconds / 2:
        code, scaled_s, raw_s, rss_mb, cli_out = cli_batch(texts, f"{args.workload}-{args.seed}")
        cli_runs.append((scaled_s, raw_s, rss_mb))
        if code in (1, 2):
            for i in range(len(items)):
                failures.setdefault(i, f"CLI batch exited {code}")
        elif cli_out != expected:
            try:
                got = json.loads(cli_out)
                bad = [i for i, r in enumerate(reference)
                       if i >= len(got) or got[i] != json.loads(r)]
            except ValueError:
                bad = []
            for i in bad or range(len(items)):
                failures.setdefault(i, "CLI bytes differ from in-process bytes")
    cli_s, cli_raw, rss_mb = (statistics.median(v) for v in zip(*cli_runs))
    setup_s = setup_time()

    n = len(texts)
    attempted = n * passes
    failed = len(failures) * passes
    busy = sum(latencies)
    # each request's median over the passes; a failed request misses any limit
    ordered = sorted(math.inf if i in failures else statistics.median(latencies[i::n])
                     for i in range(n))

    def ms(q):
        v = percentile(ordered, q)
        return 1e3 * (busy if math.isinf(v) else v)

    verdicts = sum(1 for it in items if it.verdict)
    summary.update(latency_samples=len(latencies), passes=passes, cli_raw_s=cli_raw)
    metrics = {
        "throughput_rps": ((attempted - failed) / busy, "1/s"),
        "latency_p50_ms": (ms(0.50), "ms"),
        "latency_p90_ms": (ms(0.90), "ms"),
        "cli_batch_s": (cli_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
        "decided_rate": (1.0 - len(undecided) / verdicts if verdicts else 1.0, "ratio"),
    }
    return attempted, failed, metrics


def layer_metrics(tracer, passes, plain_pass_s, trace_pass_s, first_call_ns):
    """Per-layer self time and counts, per pass over the batch."""
    self_ms = {k: v / 1e6 / passes for k, v in tracer.self_ns.items()}
    calls = {k: v / passes for k, v in tracer.calls.items()}
    counts = {k: v / passes for k, v in tracer.counts.items()}
    request_ms = tracer.request_ns / 1e6 / passes

    def frac(num, den):
        return num / den if den else 0.0

    def group(prefixes):
        return sum(v for k, v in self_ms.items() if k.split(".")[0] in prefixes)

    m = {}

    def layer(name, *fields):
        for f in fields:
            if f == "self_ms":
                m[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
            elif f == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0.0), "count")
            else:
                m[f"{name}.{f}"] = (counts.get(f"{name}.{f}", 0.0), "count")

    for name in ("cli.parse_request", "cli.decode", "cli.encode", "cli.handler"):
        layer(name, "self_ms")
    layer("exactlinalg.int_matrix", "calls", "self_ms")
    for name in ("det_int", "smith_normal_form", "complete_to_unimodular", "unimodular_inverse"):
        layer(f"exactlinalg.{name}", "self_ms")
    layer("spdcone.require_spd", "calls", "self_ms")
    layer("spdcone.quadratic_short_vectors", "calls", "self_ms", "vectors")
    layer("spdcone.minkowski_reduce", "calls", "self_ms")
    cw = "moduli.congruence_witnesses"
    layer(cw, "calls", "self_ms", "witnesses")
    m[f"{cw}.complete_frac"] = (frac(counts.get(f"{cw}.complete", 0.0), calls.get(cw, 0.0)),
                                "ratio")
    eq = "moduli.equivalent"
    layer(eq, "self_ms")
    m["moduli.decided_frac"] = (frac(counts.get(f"{eq}.decided", 0.0), calls.get(eq, 0.0)),
                                "ratio")
    layer("theta.theta_eval", "calls", "self_ms")
    layer("theta.canonical_line_bundle_data", "self_ms")
    co = "cohomology.coboundary_witness"
    layer(co, "calls", "self_ms")
    m[f"{co}.found_frac"] = (frac(counts.get(f"{co}.found", 0.0), calls.get(co, 0.0)), "ratio")
    m["cohomology.first_call_ms"] = (first_call_ns.get(co, 0) / 1e6, "ms")
    for name in ("siegel", "geodesics.distance", "extensions", "degenerations"):
        layer(name, "self_ms")
    m["trace.request_ms"] = (request_ms, "ms")
    m["trace.overhead_frac"] = (1.0 - plain_pass_s / trace_pass_s, "ratio")
    m["share.theta"] = (frac(group({"theta"}), request_ms), "ratio")
    m["share.spdcone_moduli_exactlinalg"] = (
        frac(group({"spdcone", "moduli", "exactlinalg"}), request_ms), "ratio")
    m["share.cli"] = (frac(group({"cli"}), request_ms), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "realtori" / "cli.py").is_file():
        print(f"error: no realtori sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import realtori
    import realtori.cli as cli

    OUT.mkdir(exist_ok=True)
    # one core for this process and the CLI processes it starts, so the speed
    # ticks measure the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    items = workloads.generate(args.workload, args.seed)
    texts = [it.text() for it in items]
    inputs_repeat = texts == [it.text() for it in workloads.generate(args.workload, args.seed)]

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "realtori"]
    summary = {}
    t0 = time.perf_counter()
    if args.trace:
        # traced from the first request on, so the cold coboundary table shows
        tracer = tracing.Tracer()
        with tracing.traced(tracer, realtori, modules):
            reference, codes = run_pass(cli, texts, tracer=tracer)
        first_call_ns = dict(tracer.first_ns)
    else:
        reference, codes = run_pass(cli, texts)
    summary["warm_s"] = time.perf_counter() - t0
    failures, undecided = judge(items, reference, codes)

    if args.trace:
        plain, plain_passes, _ = window(cli, texts, args.seconds / 2, reference, failures)
        tracer = tracing.Tracer()
        with tracing.traced(tracer, realtori, modules):
            traced, passes, spans = window(cli, texts, args.seconds / 2, reference, failures,
                                           tracer=tracer)
        tracing.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", spans)
        summary["passes"] = passes
        metrics = layer_metrics(tracer, passes, sum(plain) / plain_passes,
                                sum(traced) / passes, first_call_ns)
        attempted = len(texts) * passes
        failed = len(failures) * passes
    else:
        attempted, failed, metrics = end_to_end(cli, items, texts, reference, failures,
                                                undecided, args, summary)

    unexpected = {i: r for i, r in failures.items() if r not in oracles.KNOWN_DEFECTS}
    report(args, len(items), summary, metrics, failures, unexpected, undecided, inputs_repeat)
    print(json.dumps({
        "correct": bool(inputs_repeat and not unexpected),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(args, n_items, summary, metrics, failures, unexpected, undecided, inputs_repeat):
    print(f"workload {args.workload} seed {args.seed}: {n_items} requests per pass, "
          f"{summary.get('passes', 0)} measured passes, warm-up pass {summary['warm_s']:.3f} s")
    if "latency_samples" in summary:
        print(f"latency percentiles over per-request medians of {summary['latency_samples']} "
              f"samples; "
              f"CLI batch median {summary['cli_raw_s']:.3f} s before rescaling")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not inputs_repeat:
        print("inputs differ between two generations from one seed")
    print(f"undecided: {len(undecided)}; failed requests per pass: {len(failures)} "
          f"({len(unexpected)} unexpected)")
    reasons = {}
    for r in failures.values():
        reasons[r] = reasons.get(r, 0) + 1
    for r, n in sorted(reasons.items(), key=lambda kv: -kv[1])[:10]:
        known = " [known defect]" if r in oracles.KNOWN_DEFECTS else ""
        print(f"  {n:4d} x {r}{known}")


if __name__ == "__main__":
    sys.exit(main())
