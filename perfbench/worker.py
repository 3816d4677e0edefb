"""One benchmark worker: a closed loop of CLI requests in one process.

Run by ``run.py`` with ``src`` on PYTHONPATH.  Each request is one
``toricbundles.cli.main(["--format", "machine", "--output", <file>,
<command>, <inputs>...])`` call; one client sends the next request only
after the previous one returned, with no threads.  Inputs are written and
answers checked by the oracle between requests, outside the timed call.
One cycle of the workload's input mix runs first as warm-up, so shared
base rings are cached before timing starts.  Peak memory is read after a
fixed number of requests, so that it measures the footprint of a fixed
amount of work (the ring and validation caches grow with every request),
not how many requests a faster program fits into the run.

After each timed request the host-speed loop of ``hostref.py`` is timed;
a request's host reference is the mean of the loops just before and just
after it.

With ``--trace 1`` every other cycle of requests runs with the tracer
installed; the untraced ones give the latency the tracing overhead is
measured against.

Writes a JSON result to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import hostref
import inputs
import oracle
import tracing
from toricbundles import cli

RSS_AFTER_REQUESTS = 60


def write_inputs(workdir, files):
    paths = []
    for i, (suffix, text) in enumerate(files):
        path = os.path.join(workdir, f"in{i}.{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def check_output(path, command, expect):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        return oracle.check(command, report, expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def run(args):
    requests = inputs.WORKLOADS[args.workload](args.seed)
    cycle = inputs.CYCLE[args.workload]
    out_path = os.path.join(args.workdir, "out.json")
    tracer = tracing.Tracer() if args.trace else None
    latencies = []  # of untraced timed requests
    host_refs = []  # beside each of them
    attempted = failed = 0
    problems = []
    last_ref = None

    def one(rid, timed):
        nonlocal attempted, failed, last_ref
        command, files, expect = next(requests)
        argv = ["--format", "machine", "--output", out_path, command]
        argv += write_inputs(args.workdir, files)
        if os.path.exists(out_path):
            os.remove(out_path)
        traced = tracer is not None and timed and (rid // cycle) % 2 == 1
        if traced:
            tracer.request_id = rid
            tracer.install()
        attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                code = tracer.call(tracing.REQUEST, cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception as exc:  # a failed request is counted, not fatal
            code = repr(exc)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if timed:
            ref = hostref.loop_s()
            host_ref = (last_ref + ref) / 2
            last_ref = ref
        found = [f"exit {code}"] if code != 0 else check_output(out_path, command, expect)
        if found:
            failed += 1
            problems.append({"request": rid, "command": command, "problems": found})
        elif timed and not traced:
            latencies.append(elapsed)
            host_refs.append(host_ref)

    for rid in range(max(cycle, 3)):
        one(-1 - rid, timed=False)
    last_ref = hostref.loop_s()
    deadline = time.perf_counter() + args.seconds
    rid = 0
    while True:
        timed = time.perf_counter() < deadline
        if not timed and rid >= RSS_AFTER_REQUESTS:
            break
        one(rid, timed)
        rid += 1
        if rid == RSS_AFTER_REQUESTS:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies_s": latencies,
        "host_refs_s": host_refs,
        "peak_rss_mib": peak_rss_kib / 1024,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
