#!/usr/bin/env python3
"""The toricbundles benchmark: seeded CLI workloads, exact oracle, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload twist-compare --seed 1 --seconds 20 --trace 0

Workloads: twist-compare, surfaces, presented-bundle, equivariant (see
BENCHMARK.json for why each was chosen).  One worker process runs a closed
loop of ``toricbundles.cli.main`` requests for ``--seconds`` and checks
every answer with ``oracle.py``.  ``setup_s`` is the median time a fresh
interpreter takes to import ``toricbundles.cli``, measured inside it.
Every time among the end-to-end metrics is scaled to a nominal host speed
by the loop of ``hostref.py``, timed beside it; the times as measured are
on the line before the last.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
line before it records the unscaled times and a fixed pure-Python loop
timed before and after the run, to tell machine drift from a program
change.  The worker's spans and latencies are kept in ``.bench_work/``.
Exits 1 if any answer is wrong and 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import hostref
import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 10  # before the worker and again after it
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {here!r}); import hostref; "
    "r = hostref.loop_s(); t = time.perf_counter(); import toricbundles.cli; "
    "t = time.perf_counter() - t; print(t, (r + hostref.loop_s()) / 2)"
).format(here=HERE)


def host_loop_s() -> float:
    """Time of a longer run of the host-speed loop, before and after a run."""
    return hostref.loop_s(1_000_000)


def import_times(env, count):
    """(time, host loop time) for fresh interpreters to import the CLI,
    both measured inside them."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        )
        t, ref = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(t), float(ref)))
    return samples


def timings(latencies, setups):
    """Throughput, latency quantiles and set-up time, from times in seconds."""
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(result, setup_samples):
    ok = result["attempted"] - result["failed"]
    latencies = [
        hostref.scaled(t, ref)
        for t, ref in zip(result["latencies_s"], result["host_refs_s"])
    ]
    setups = [hostref.scaled(t, ref) for t, ref in setup_samples]
    metrics = timings(latencies, setups)
    metrics["success_rate"] = (ok / result["attempted"], "ratio")
    metrics["peak_rss_mib"] = (result["peak_rss_mib"], "MiB")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "toricbundles", "cli.py")):
        print("perfbench: run from the root of a toricbundles checkout "
              "(no src/toricbundles/cli.py here)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(root, ".bench_work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(work, tag)
    result_path = os.path.join(work, f"{tag}.json")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup_samples = []
    try:
        if not args.trace:
            import_times(env, 1)  # writes bytecode in a fresh checkout
            setup_samples += import_times(env, SETUP_SAMPLES)
        host_before = host_loop_s()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--result", result_path],
            env=env, check=True, stdout=subprocess.DEVNULL,
            timeout=args.seconds + 120,
        )
        host_after = host_loop_s()
        if not args.trace:
            setup_samples += import_times(env, SETUP_SAMPLES)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for problem in result["problems"]:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    if not result["latencies_s"]:
        print("perfbench: no request succeeded", file=sys.stderr)
        return 2

    diagnostic = {"host_loop_s": {"before": host_before, "after": host_after}}
    if args.trace:
        metrics = tracing.layer_metrics(
            result["spans"], result["latencies_s"])
    else:
        metrics = end_to_end(result, setup_samples)
        unscaled = timings(result["latencies_s"], [t for t, _ in setup_samples])
        diagnostic["unscaled"] = {
            name: value for name, (value, _) in unscaled.items()
        }
        diagnostic["request_host_loop_s_p50"] = statistics.median(
            result["host_refs_s"])
    print(json.dumps(diagnostic))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
