"""Benchmark entry point for lieext.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Generates the workload's inputs from the seed, runs them in a fresh worker
process (see worker.py), checks every answer with the independent oracle
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
one job cycle untraced and then traced in one process and traced again in a
second, checks that the two traced runs count the same, and reports the
per-layer metrics.
``--workload all`` prints every end-to-end figure of every workload as a
table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("classify-certified", "assumed-scan-cert")
SETUP_PROBES = 10
ROUNDS = 3          # distinct input draws; a timed run cycles through them
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


class Run:
    """One workload at one seed: generated inputs, worker processes, checks."""

    def __init__(self, workload, seed, deadline):
        import gen
        import oracle

        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        rel = f"perfbench/_work/{workload}-s{seed}-{os.getpid()}"
        self.work = os.path.join(ROOT, rel)
        os.makedirs(self.work)
        rng = random.Random(f"{workload}:{seed}")
        inputs = gen.Inputs(self.work, rel)
        self.cycles = []
        for r in range(ROUNDS):
            inputs.round = r
            gen.GENERATORS[workload](inputs, rng)
            cycle = [k for k, job in enumerate(inputs.jobs) if job["round"] == r
                     for _ in range(job["weight"])]
            rng.shuffle(cycle)
            self.cycles.append(cycle)
        self.jobs = inputs.jobs
        self.spec = os.path.join(self.work, "jobs.json")
        with open(self.spec, "w", encoding="utf-8") as fh:
            json.dump({"argv": [job["argv"] for job in self.jobs], "cycles": self.cycles}, fh)
        self.oracle = oracle.Oracle(ROOT)
        self.spawned = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, mode, *extra):
        """Run one worker to completion; adds ``setup_s`` to its report."""
        self.spawned += 1
        out = os.path.join(self.work, f"{mode}{self.spawned}.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        # Let the first probe cache lieext's bytecode, as an installed
        # package has it, so setup_s does not depend on the caller's setting.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, WORKER, self.spec, out, mode, *extra],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["setup_s"] = doc["ready"] - t0
        doc["path"] = out
        return doc

    # -- checking ------------------------------------------------------------

    def failures(self, doc):
        """Number of results the oracle rejects (a raise counts as a failure)."""
        verdicts = {}
        failed = 0
        for k, rc, _, variant in doc["results"]:
            key = (k, rc, variant)
            if key not in verdicts:
                out, err = doc["outputs"][k][variant]
                verdicts[key] = rc is not None and self.oracle.check(self.jobs[k], rc, out, err)
            failed += not verdicts[key]
        return failed

    def self_check(self, doc, failed):
        """Corrupt one accepted answer and require the count to see it."""
        import oracle

        for k, rc, _, variant in doc["results"]:
            out, err = doc["outputs"][k][variant]
            if rc is not None and self.oracle.check(self.jobs[k], rc, out, err):
                break
        else:
            raise BenchError("oracle self-check found no accepted answer to corrupt")
        bad = oracle.corrupt(self.jobs[k], out, err)
        outputs = [list(v) for v in doc["outputs"]]
        outputs[k][variant] = bad
        uses = sum(1 for r in doc["results"] if (r[0], r[1], r[3]) == (k, rc, variant))
        if self.failures({"results": doc["results"], "outputs": outputs}) != failed + uses:
            raise BenchError(f"oracle self-check: a corrupted answer to job {k} was accepted")

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self, seconds):
        self.spawn("probe")                 # compiles bytecode; not measured
        setups = [self.spawn("probe")["setup_s"] for _ in range(SETUP_PROBES)]
        doc = self.spawn("timed", str(seconds))
        setups.append(doc["setup_s"])
        failed = self.failures(doc)
        self.self_check(doc, failed)
        latencies = [r[2] for r in doc["results"]]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (len(latencies) / doc["wall_s"], "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            "peak_rss_mb": (doc["peak_rss_kb"] / 1024, "MB"),
        }
        extra = {"failed_ratio": (failed / len(latencies), "ratio")}
        vps = self.vectors_per_s(doc["results"])
        if vps is not None:
            extra["vectors_per_s"] = (vps, "1/s")
        note = (f"{self.workload} seed {self.seed}: {len(latencies)} jobs in "
                f"{doc['cycles']} cycles of {len(self.cycles[0])} in {doc['wall_s']:.2f} s")
        return metrics, extra, len(latencies), failed, note

    def vectors_per_s(self, results):
        """Nonzero vectors classified per second of scan-job time."""
        vectors = seconds = 0
        for k, _, latency, _ in results:
            job = self.jobs[k]
            if job["kind"] == "scan":
                vectors += job["p"] ** job["dim"] - 1
                seconds += latency
        return vectors / seconds if seconds else None

    def per_layer(self, meta):
        import tracer

        docs = [self.spawn("traced"), self.spawn("traced", "again")]
        (stats, spans), (again, _) = (tracer.load(d["path"] + ".spans") for d in docs)
        counted = {k for k in (*stats, *again) if not k.endswith(".self_s")}
        diff = [k for k in sorted(counted) if stats.get(k) != again.get(k)]
        if diff:
            shown = ", ".join(f"{k}: {stats.get(k)} vs {again.get(k)}" for k in diff[:8])
            raise BenchError(f"benchmark defect: two traced runs of seed {self.seed} disagree on {shown}")
        self.require_calls(stats, meta)
        failed = self.failures(docs[0])
        self.self_check(docs[0], failed)
        stats["trace.overhead_ratio"] = docs[0]["traced_s"] / docs[0]["untraced_s"]
        stats["algebra.meataxe_simple.nullity"] = self.mean_nullity(docs[0])
        stats["extremal.exhaustive_scan.vectors_per_s"] = self.vectors_per_s(docs[0]["untraced_results"]) or 0.0
        metrics = {}
        for row in meta["layers"]:
            for name in row["metrics"]:
                if name not in stats:
                    raise BenchError(f"per-layer metric {name} names no wrapped callable")
                metrics[name] = (stats[name], meta["units"][name.rsplit(".", 1)[1]])
        n = len(docs[0]["results"])
        note = (f"{self.workload} seed {self.seed}: traced {n} jobs twice, "
                f"overhead x{stats['trace.overhead_ratio']:.2f}, "
                f"{spans} spans, peak RSS {docs[0]['peak_rss_kb'] / 1024:.0f} MB")
        return metrics, {}, n, failed, note

    def require_calls(self, stats, meta):
        for row in meta["layers"]:
            if self.workload not in row["on"]:
                continue
            skip = row.get("not_reached_on", {})
            for name in row["metrics"]:
                callable_ = name.rsplit(".", 1)[0]
                if name.startswith("trace.") or self.workload in skip.get(callable_, {}):
                    continue
                if not stats.get(callable_ + ".calls"):
                    raise BenchError(f"traced run: {callable_} made no calls on {self.workload}, "
                                     "where its row predicts it moves")

    def mean_nullity(self, doc):
        """Mean nullity of the MeatAxe operator over certified classify jobs."""
        values = []
        for k, rc, _, variant in doc["results"]:
            out = doc["outputs"][k][variant][0]
            if self.jobs[k]["kind"] == "classify" and rc == 0:
                detail = json.loads(out)["hypotheses"]["simplicity"]["detail"]
                if "nullity-" in detail:
                    values.append(int(detail.split("nullity-")[1].split()[0]))
        return statistics.mean(values) if values else 0


def measure(workload, seed, seconds, trace, deadline):
    run = Run(workload, seed, deadline)
    try:
        if trace:
            with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
                return run.per_layer(json.load(fh))
        return run.end_to_end(seconds)
    finally:
        run.close()


def table(seed, seconds, deadline):
    rows = []
    for workload in WORKLOADS:
        metrics, extra, attempted, failed, note = measure(workload, seed, seconds, False, deadline)
        print(note, flush=True)
        rows.append((workload, {**metrics, **extra}, attempted))
    for workload, metrics, attempted in rows:
        print(f"\n{workload}  (samples: {attempted} jobs)")
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:14.6g} {unit}")
    return all(m["failed_ratio"][0] == 0 for _, m, _ in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "lieext", "cli.py")):
        print(f"error: no lieext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all":
            return 0 if table(args.seed, args.seconds, time.monotonic() + 4 * TIME_LIMIT_S) else 1
        metrics, extra, attempted, failed, note = measure(
            args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(note)
    for name, (value, unit) in extra.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
