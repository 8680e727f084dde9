"""The workload process: one client issuing jobs one after another.

A job is one in-process call to ``lieext.cli.run(argv)`` with stdout and
stderr captured.  Run by ``run.py`` with ``PYTHONPATH`` pointing at the
checkout's ``src``:

    worker.py JOBS OUT probe            import, report readiness, exit
    worker.py JOBS OUT timed SECONDS    whole job cycles until SECONDS pass
                                        and at least MIN_JOBS jobs ran
    worker.py JOBS OUT traced           the first cycle untraced, then traced
    worker.py JOBS OUT traced again     the first cycle traced only

JOBS holds the argv lists and the job cycles, which a timed run takes in
turn; OUT receives the results.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback

import lieext.cli as cli

# Enough jobs that at least ten latencies lie beyond the 90th percentile.
MIN_JOBS = 100


class Client:
    def __init__(self, jobs):
        self.jobs = jobs
        self.results = []                       # [job, rc, latency_s, variant]
        self.outputs = [[] for _ in jobs]       # distinct (stdout, stderr) per job

    def run_cycle(self, cycle, on_job=None):
        for k in cycle:
            if on_job is not None:
                on_job(k)
            out, err = io.StringIO(), io.StringIO()
            sys.stdout, sys.stderr = out, err
            t0 = time.perf_counter()
            try:
                rc = cli.run(self.jobs[k])
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            finally:
                t1 = time.perf_counter()
                sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
            self.record(k, rc, t1 - t0, (out.getvalue(), err.getvalue()))

    def record(self, k, rc, latency, output):
        variants = self.outputs[k]
        if output not in variants:
            variants.append(output)
        self.results.append([k, rc, latency, variants.index(output)])

    def report(self, **extra):
        doc = {"results": self.results, "outputs": self.outputs,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        doc.update(extra)
        return doc


def main(argv):
    jobs_path, out_path, mode = argv[:3]
    with open(jobs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cycles = spec["cycles"]
    client = Client(spec["argv"])
    ready = time.monotonic()
    if mode == "probe":
        doc = {}
    elif mode == "timed":
        seconds = float(argv[3])
        t0 = time.perf_counter()
        done = 0
        while True:
            client.run_cycle(cycles[done % len(cycles)])
            done += 1
            if time.perf_counter() - t0 >= seconds and len(client.results) >= MIN_JOBS:
                break
        doc = client.report(wall_s=time.perf_counter() - t0, cycles=done)
    elif mode == "traced":
        from tracer import Tracer

        untraced, plain = None, []
        if argv[3:] != ["again"]:
            t0 = time.perf_counter()
            client.run_cycle(cycles[0])
            untraced = time.perf_counter() - t0
            plain = client.results
            client = Client(spec["argv"])
        tracer = Tracer()
        tracer.install()

        def enter(k):
            tracer.job = k

        t0 = time.perf_counter()
        client.run_cycle(cycles[0], enter)
        traced = time.perf_counter() - t0
        tracer.dump(out_path + ".spans")
        doc = client.report(untraced_s=untraced, traced_s=traced, untraced_results=plain)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    doc["ready"] = ready
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
