"""Layer-by-layer benchmark of eigenfence.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {desk,regions,bounds,pictures} \\
        --seed N --seconds S --trace {0,1}

The command draws the workload's inputs and reference spectra from the
seed, then measures the library from ``src/`` in fresh interpreters with
BLAS pinned to one thread.  ``--trace 0`` prints the end-to-end metrics
(one timed process plus ``SETUP_PROBES`` set-up processes); ``--trace 1``
prints the per-layer metrics of a traced process.  Each metric is printed
on its own line with its unit, and the last line is one JSON object.  A
result file with provenance goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 9
PROCESS_TIMEOUT_S = 140
PROBE_TIMEOUT_S = 20


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_worker(mode: str, args, workdir: str, extra=()) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", args.workload,
           "--inputs", workdir, "--seconds", str(args.seconds), *extra]
    timeout = PROBE_TIMEOUT_S if mode == "setup" else PROCESS_TIMEOUT_S
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=dict(os.environ))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _provenance(args) -> dict:
    commit = None
    if os.path.isdir(".git"):   # never look above the checkout for a repository
        try:
            commit = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit, "src_sha256": _source_digest("src"),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _timings(lat: np.ndarray, timed: dict) -> tuple[float, float, float, list, np.ndarray]:
    """ops_per_s, p50 and p90 of per-request times, with the latency windows."""
    by_cycle = lat.reshape(-1, timed["cycle"])
    # successful requests per busy second in the median request cycle
    ops = timed["cycle"] * (1 - timed["failed"] / timed["attempted"]) / np.median(by_cycle.sum(axis=1))
    # quantiles of each window of whole cycles holding at least MIN_REQUESTS
    # requests, then their median: a slow phase of the machine that covers
    # a few windows moves neither
    windows = [w.ravel() for w in np.array_split(by_cycle, max(1, lat.size // timed["window"]))]
    per_window = np.array([np.percentile(w, [50, 90]) for w in windows])
    p50, p90 = np.median(per_window, axis=0)
    return float(ops), float(p50), float(p90), windows, per_window


def _end_to_end(timed: dict, probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics; each request's wall time is multiplied by its
    local scale (``worker.Loop.local_scales``), each set-up time by its
    probe's scale."""
    wall = np.array(timed["latencies"])
    ops, p50, p90, windows, per_window = _timings(wall * np.array(timed["scales"]), timed)
    wall_ops, wall_p50, wall_p90, _w, _q = _timings(wall, timed)
    ok = timed["attempted"] - timed["failed"]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] * p["scale"] for p in probes), "s", len(probes)),
        "ops_per_s": (ops, "1/s", wall.size),
        "latency_p50_ms": (1e3 * p50, "ms", wall.size),
        "latency_p90_ms": (1e3 * p90, "ms", wall.size),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB", 1),
        "success_rate": (ok / timed["attempted"], "ratio", timed["attempted"]),
        # 0 (and not correct, below) when no request returned a verified fence
        "fence_ratio": (statistics.median(timed["fences"] or [0.0]), "ratio", len(timed["fences"])),
    }
    extra = {"error_rate": timed["failed"] / timed["attempted"], "windows": len(windows),
             "beyond_p90_per_window": min(int((w > q90).sum()) for w, (_q50, q90) in zip(windows, per_window)),
             "wall": {"setup_s": statistics.median(p["setup_s"] for p in probes), "ops_per_s": wall_ops,
                      "latency_p50_ms": 1e3 * wall_p50, "latency_p90_ms": 1e3 * wall_p90},
             "scale": statistics.median(timed["scales"]), "reference": timed["reference"],
             "reference_s": timed["reference_s"], "cycle_busy_s": timed["cycle_busy_s"],
             "setup_probes": [{k: p[k] for k in ("setup_s", "import_s", "scale")} for p in probes]}
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "eigenfence", "__init__.py")):
        return _fail("run from the root of an eigenfence checkout (src/eigenfence not found)")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(OUT_DIR, "work", tag)
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    try:
        started = time.perf_counter()
        workloads.generate(args.workload, args.seed, workdir)
        generate_s = time.perf_counter() - started
        if args.trace:
            spans = os.path.join(results, f"{tag}-spans.tsv.gz")
            main_run = _run_worker("traced", args, workdir, ("--spans", spans))
            metrics = {k: (m["value"], m["unit"], main_run["traced_requests"])
                       for k, m in main_run["metrics"].items()}
            extra = {"spans_file": spans, "spans": main_run["spans"], "patched": main_run["patched"],
                     "scale": main_run["scale"],
                     "untraced_ops_per_s": main_run["untraced_ops_per_s"],
                     "traced_ops_per_s": main_run["traced_ops_per_s"]}
        else:
            main_run = _run_worker("timed", args, workdir)
            probes = [_run_worker("setup", args, workdir) for _ in range(SETUP_PROBES)]
            metrics, extra = _end_to_end(main_run, probes)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    planted = main_run["planted"]
    correct = main_run["wrong_count"] == 0 and planted["tried"] > 0 \
        and planted["detected"] == planted["tried"] and bool(main_run.get("fences", True))
    record = {
        "provenance": _provenance(args),
        "correct": correct, "attempted": main_run["attempted"], "failed": main_run["failed"],
        "requests_by_class": main_run["classes"], "failures_by_class": main_run["failures"],
        "wrong_answers": main_run["wrong"], "planted_faults": planted, "gate_probe": main_run["gate_probe"],
        "generate_s": generate_s,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **extra,
    }
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit, samples) in metrics.items():
        wall = f"; wall {extra['wall'][name]:.6g}" if name in extra.get("wall", {}) else ""
        print(f"{name:34s} {value:14.6g} {unit:6s} (n={samples}{wall})")
    if args.trace:
        slopes = ", ".join(f"{layer} {metrics[f'{layer}.scaling_exp'][0]:.2f}"
                           for layer in ("similarity", "discs", "refine"))
        print(f"scaling: the paper claims O(n^2) work (exponent 2, times log n for the sorts); "
              f"measured self-time exponents {slopes}")
    else:
        print(f"{'error_rate':34s} {extra['error_rate']:14.6g} {'ratio':6s} (n={main_run['attempted']}; "
              f"in the JSON line as failed/attempted)")
        print(f"request times are wall times scaled by a median {extra['scale']:.4g} to a machine where the "
              f"reference {main_run['reference']} takes {1e3 * main_run['reference_nominal_s']:g} ms; "
              f"set-up times by the reference loop")
    print(f"requests {main_run['classes']}  failures {main_run['failures']}  "
          f"planted faults detected {planted['detected']}/{planted['tried']}")
    gate = main_run["gate_probe"]
    if gate["requests"]:
        print(f"gate probe (untimed): {gate['defects']} of {gate['requests']} requests on "
              f"{gate['problems']} problems that validate accepts exit non-zero {gate['by_command']}")
    for line in main_run["wrong"]:
        print(f"WRONG {line}")
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
