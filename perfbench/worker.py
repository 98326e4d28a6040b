"""One measuring process: ``python3 perfbench/worker.py <mode> ...``.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one
thread.  Modes:

* ``setup``: import eigenfence and run the warm-up request; print its time.
* ``timed``: the same, then a closed loop (one client, no think time) over
  whole request cycles until ``--seconds`` have passed and at least
  ``workloads.MIN_REQUESTS`` requests ran.  Every output is verified
  outside the timed path, and every ``SAMPLE_EVERY_S`` busy seconds the
  workload's reference kernel is timed between two requests.
* ``traced``: untraced and traced cycles of the same requests, alternating
  for ``--seconds``, then one cycle under tracemalloc; prints the per-layer
  metrics.

On ``desk``, the timed and traced modes end with the untimed gate probe
(``workloads.Desk.gate_probe``).

Every mode reports ``scale``: the nominal time of its reference kernel
(``REFERENCES``) over the kernel's median time in this process, the factor
that turns this process's times into times on a machine where the kernel
takes its nominal time.  Set-up probes use the loop, since imports are
Python work; the other modes use the workload's kernel.  The timed mode
also reports a local scale per request (``Loop.local_scales``).  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Hard stop for the measuring loops of one process, well inside the
#: benchmark's time limit.
WALL_LIMIT_S = 100.0

#: Verified outputs that also get the planted-fault self-check.
PLANT_ATTEMPTS = 10

#: The measured library: ``src/`` of the checkout the run starts in.
SRC = "src"

#: Busy seconds between two samples of the reference kernel.
SAMPLE_EVERY_S = 0.5

#: Samples of the reference kernel, the nearest ones in request order, that
#: scale one timed request (see ``Loop.local_scales``).
LOCAL_SAMPLES = 5


def reference_loop() -> float:
    """Seconds one pass of the reference loop takes: pure Python integer
    arithmetic that allocates no containers, so neither the library nor the
    garbage collector changes its time; only the speed the machine gives
    this process does."""
    start = perf_counter()
    s = 0
    for k in range(30000):
        s += k * k % 7
    return perf_counter() - start


class ReferenceStream:
    """The reference stream: a difference, a modulus and a sum over 16 MB
    arrays, the memory traffic of numpy code on large temporaries.  Its
    three arrays are allocated once, before the first request, so they add
    the same 48 MB to peak RSS on every run; temporaries made per pass
    would land on top of the requests' peak on some runs only."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.arange(2 ** 21, dtype=float)
        self.b = self.a[::-1].copy()
        self.c = np.empty_like(self.a)

    def __call__(self) -> float:
        """Seconds one pass takes."""
        start = perf_counter()
        self.np.subtract(self.a, self.b, out=self.c)
        self.np.abs(self.c, out=self.c)
        self.c.sum()
        return perf_counter() - start


#: Reference kernels: a factory of the timing function, its nominal seconds
#: (the time on the machine that reported times are scaled to) and its
#: passes per sample.
REFERENCES = {"loop": (lambda: reference_loop, 2.0e-3, 3), "stream": (ReferenceStream, 10e-3, 1)}


def _import_library(cli: bool):
    sys.path.insert(0, SRC)
    import eigenfence
    if cli:
        import eigenfence.cli  # noqa: F401  (the package does not import its CLI)
    home = os.path.realpath(os.path.dirname(eigenfence.__file__))
    if os.path.dirname(home) != os.path.realpath(SRC):
        raise SystemExit(f"eigenfence imported from {home}, not from {SRC}")
    return eigenfence


class Loop:
    """Runs requests, verifies them and keeps the per-request records."""

    def __init__(self, ef, wl, reference: str):
        self.ef, self.wl = ef, wl
        factory, self.nominal_s, self.passes = REFERENCES[reference]
        self.kernel = factory()
        self.latencies: list[float] = []
        self.fences: list[float] = []
        self.classes = Counter()
        self.failures = defaultdict(Counter)
        self.wrong: list[str] = []
        self.planted: list[bool] = []
        self.plant_attempts = 0
        self.attempted = 0
        self.reference: list[float] = []
        # (kept requests before the sample, its pass times)
        self.samples: list[tuple[int, list[float]]] = []

    def sample_reference(self) -> None:
        passes = [self.kernel() for _ in range(self.passes)]
        self.reference += passes
        self.samples.append((len(self.latencies), passes))

    def local_scales(self) -> list[float]:
        """The scale of each kept request: the nominal time over the median
        pass of the ``LOCAL_SAMPLES`` samples taken nearest to it, so that
        the scale follows the machine's speed through the run."""
        import numpy as np
        at = np.array([pos for pos, _passes in self.samples])
        scales = []
        for j in range(len(self.latencies)):
            near = np.argsort(np.abs(at - j), kind="stable")[:LOCAL_SAMPLES]
            scales.append(self.nominal_s / statistics.median(t for k in near for t in self.samples[k][1]))
        return scales

    @property
    def scale(self) -> float:
        return self.nominal_s / statistics.median(self.reference)

    def one(self, i: int, tracer=None, keep=True) -> float:
        wl = self.wl
        inp = wl.inputs(i)
        if tracer is not None:
            tracer.begin(i, {"n": inp["n"], "cls": inp["cls"]})
        start = perf_counter()
        try:
            out, error = wl.run(self.ef, inp), None
        except Exception as exc:  # a raised error is a failed request, not a crash
            out, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        wall = perf_counter() - start
        if tracer is not None:
            if "bytes_in" in inp:
                tracer.note("bytes_in", inp["bytes_in"])
                tracer.note("bytes_out", len(out[1]) + len(out[2]) if out is not None else 0)
            tracer.end(wall)
        if keep:
            self.latencies.append(wall)
        self.attempted += 1
        self.classes[inp["cls"]] += 1
        if error is None:
            error, ratios = self._verify(inp, out)
            if error is None and i < wl.min_requests and ratios:
                self.fences.append(sum(ratios) / len(ratios))
        if error is not None:
            self.failures[inp["cls"]][error.split(":")[0]] += 1
        return wall

    def _verify(self, inp, out):
        import verify
        import workloads
        try:
            ratios = self.wl.check(inp, out)
        except workloads.RequestFailed as exc:
            return str(exc), None
        except verify.CheckFailed as exc:
            self.wrong.append(f"{inp['cls']}: {exc}")
            return f"check: {exc}", None
        if self.plant_attempts < PLANT_ATTEMPTS:
            self.plant_attempts += 1
            self.planted.extend(self.wl.plant(inp, out))
        return None, ratios

    def cycles(self, first: int, seconds: float, minimum: int, tracer=None,
               limit: float = WALL_LIMIT_S) -> list[float]:
        """Whole cycles from request ``first`` until ``seconds`` passed and
        ``minimum`` requests ran (or ``limit`` seconds); returns the busy
        seconds of each cycle."""
        cycle = self.wl.cycle
        start = perf_counter()
        i, busy, per_cycle, since = first, 0.0, [], 0.0
        while True:
            wall = self.one(i, tracer)
            busy += wall
            since += wall
            if since >= SAMPLE_EVERY_S:
                self.sample_reference()
                since = 0.0
            i += 1
            if (i - first) % cycle:
                continue
            per_cycle.append(busy)
            busy = 0.0
            elapsed = perf_counter() - start
            if (elapsed >= seconds and len(per_cycle) * cycle >= minimum) or elapsed > limit:
                return per_cycle


def _summary(loop: Loop) -> dict:
    return {"attempted": loop.attempted,
            "failed": sum(sum(c.values()) for c in loop.failures.values()),
            "wrong": loop.wrong[:20], "wrong_count": len(loop.wrong),
            "planted": {"tried": len(loop.planted), "detected": sum(loop.planted)},
            "classes": dict(loop.classes),
            "failures": {cls: dict(c) for cls, c in loop.failures.items()}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="span file to write (traced mode)")
    args = parser.parse_args()
    if args.mode == "traced" and args.spans is None:
        parser.error("traced mode needs --spans")

    start = perf_counter()
    ef = _import_library(cli=args.workload == "desk")
    import_s = perf_counter() - start

    import workloads
    wl = workloads.load(args.workload, args.inputs)
    loop = Loop(ef, wl, "loop" if args.mode == "setup" else wl.reference)
    warm = loop.one(0, keep=False)
    setup_s = import_s + warm
    loop.sample_reference()
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        result.update(scale=loop.scale)
        print(json.dumps(result))
        return 0

    if args.mode == "timed":
        per_cycle = loop.cycles(1, args.seconds, wl.min_requests)
        result.update(cycle=wl.cycle, window=wl.min_requests, cycle_busy_s=per_cycle, latencies=loop.latencies,
                      scales=loop.local_scales(), fences=loop.fences,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        import tracemalloc

        import tracing
        # untraced and traced cycles alternate, so both see the same machine
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, ef)
        plain, traced_cycles = [], []
        start = perf_counter()
        while not traced_cycles or perf_counter() - start < args.seconds:
            tracing.switch(patches, False)
            plain += loop.cycles(1, 0.0, 0)
            tracing.switch(patches, True)
            traced_cycles += loop.cycles(1, 0.0, 0, tracer)
            if perf_counter() - start > WALL_LIMIT_S:
                break
        traced = tracer.requests
        tracer.requests = []
        tracer.memory = True
        tracemalloc.start()
        for i in range(1, 1 + wl.cycle):
            loop.one(i, tracer, keep=False)
        tracemalloc.stop()
        metrics = tracing.layer_metrics(traced, tracer.requests)
        plain_ops = wl.cycle * len(plain) / sum(plain)
        traced_ops = wl.cycle * len(traced_cycles) / sum(traced_cycles)
        metrics["trace.overhead"] = (plain_ops / traced_ops, "ratio")
        spans = tracer.dump(args.spans)
        result.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      patched=len(patches), spans=spans, traced_requests=len(traced),
                      untraced_ops_per_s=plain_ops, traced_ops_per_s=traced_ops)
    # after the measuring, so it adds to neither the times nor peak RSS
    gate, wrong = wl.gate_probe(ef)
    loop.wrong += wrong
    if args.mode == "traced":
        result["metrics"]["cli.gate_defects"] = {"value": gate["defects"], "unit": "count"}
    result.update(gate_probe=gate)
    result.update(_summary(loop), scale=loop.scale, reference=wl.reference,
                  reference_nominal_s=loop.nominal_s, reference_s=loop.reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
