"""Spans around the public functions of each realtori module.

The benchmark measures layers from the outside: ``traced(tracer, package,
modules)`` replaces each listed function with a wrapper that records a span (id,
parent id, request id, layer, start, end) and, for some layers, a count
taken from the result.  Every binding of the function inside the package is
replaced, including names a module imported with ``from .x import f``, and
the command table of the CLI.  Leaving the ``with`` block puts every
original back.

A layer's self time is its spans' duration minus the time of their direct
child spans.  Spans are kept in memory; ``flush`` folds them into per-layer
totals at the end of each pass over the batch.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

REQUEST = "request"


def _vectors(counts, key, result):
    counts[key + ".vectors"] += len(result)


def _witnesses(counts, key, result):
    found, complete = result
    counts[key + ".witnesses"] += len(found)
    counts[key + ".complete"] += bool(complete)


def _decided(counts, key, result):
    counts[key + ".decided"] += result.verdict.value != "UNDECIDED"


def _found(counts, key, result):
    counts[key + ".found"] += result is not None


# (module, function names, layer, counter); None names = every public function
LAYERS = [
    ("cli", ("parse_request",), "cli.parse_request", None),
    ("cli", ("decode_matrix", "decode_vector", "decode_siegel"), "cli.decode", None),
    ("cli", ("canonical_json", "encode_matrix", "encode_siegel"), "cli.encode", None),
    ("exactlinalg", ("int_matrix",), "exactlinalg.int_matrix", None),
    ("exactlinalg", ("det_int",), "exactlinalg.det_int", None),
    ("exactlinalg", ("smith_normal_form",), "exactlinalg.smith_normal_form", None),
    ("exactlinalg", ("complete_to_unimodular",), "exactlinalg.complete_to_unimodular", None),
    ("exactlinalg", ("unimodular_inverse",), "exactlinalg.unimodular_inverse", None),
    ("spdcone", ("require_spd",), "spdcone.require_spd", None),
    ("spdcone", ("quadratic_short_vectors",), "spdcone.quadratic_short_vectors", _vectors),
    ("spdcone", ("minkowski_reduce",), "spdcone.minkowski_reduce", None),
    ("moduli", ("congruence_witnesses",), "moduli.congruence_witnesses", _witnesses),
    ("moduli", ("polarized_tori_equivalent", "real_ppav_equivalent"), "moduli.equivalent",
     _decided),
    ("theta", ("theta_eval",), "theta.theta_eval", None),
    ("theta", ("canonical_line_bundle_data",), "theta.canonical_line_bundle_data", None),
    ("cohomology", ("coboundary_witness",), "cohomology.coboundary_witness", _found),
    ("geodesics", ("distance",), "geodesics.distance", None),
    ("siegel", None, "siegel", None),
    ("extensions", None, "extensions", None),
    ("degenerations", None, "degenerations", None),
]
HANDLER = "cli.handler"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.first_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.request_ns = 0
        self.request = 0
        self._stack = [0]
        self._next = 1

    def wrap(self, layer, fn, counter=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, self.request, layer, t0, t1))
                if layer not in self.first_ns:
                    self.first_ns[layer] = t1 - t0
            if counter is not None:
                counter(self.counts, layer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def traced_call(self, fn, *args):
        """Run one request under a root span."""
        self.request += 1
        return self.wrap(REQUEST, fn)(*args)

    def flush(self) -> list[tuple]:
        """Fold the spans recorded so far into the totals; returns them."""
        spans, self.spans = self.spans, []
        child = defaultdict(int)
        for sid, parent, _, _, t0, t1 in spans:
            child[parent] += t1 - t0
        for sid, _, _, layer, t0, t1 in spans:
            if layer == REQUEST:
                self.request_ns += t1 - t0
            self.self_ns[layer] += (t1 - t0) - child[sid]
            self.calls[layer] += 1
        return spans


def _targets(package, module, names):
    mod = getattr(package, module)
    if names is None:
        names = [n for n in getattr(mod, "__all__", ())
                 if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)
                 and getattr(getattr(mod, n), "__module__", None) == mod.__name__]
    return [getattr(mod, n) for n in names]


@contextmanager
def traced(tracer: Tracer, package, modules):
    """Install wrappers on every binding of the layer functions; restore on exit.

    ``package`` is the imported ``realtori`` package, ``modules`` every loaded
    module of it (including ``realtori.cli``).
    """
    patches: list[tuple[dict, str, object]] = []
    try:
        for module, names, layer, counter in LAYERS:
            for fn in _targets(package, module, names):
                wrapper = tracer.wrap(layer, fn, counter)
                for mod in modules:
                    space = vars(mod)
                    for key, value in list(space.items()):
                        if value is fn:
                            patches.append((space, key, fn))
                            space[key] = wrapper
        commands = package.cli.COMMANDS
        for key, fn in list(commands.items()):
            patches.append((commands, key, fn))
            commands[key] = tracer.wrap(HANDLER, fn)
        yield tracer
    finally:
        for space, key, original in reversed(patches):
            space[key] = original


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, request, layer, t0, t1 in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                 "layer": layer, "start_ns": t0, "end_ns": t1}) + "\n")
