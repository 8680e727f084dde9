"""Parent and change timed job by job, alternating, in one process.

    python3 tools/interleave.py --parent OLD [--change NEW] --workload W --seed S \
        [--kind K] [--label SUBSTRING] [--rounds N]

Generates the inputs of perfbench workload W at seed S with the change's
``perfbench/gen.py``, drawn exactly as ``perfbench/run.py`` draws them, into
a temporary directory outside both checkouts; ``--kind`` keeps only the jobs
of one kind (check, classify, scan or cert), and ``--label`` only those whose
label contains SUBSTRING (``witt5`` keeps witt5/F5 and witt5/F5/rebased).
The change's ``lieext`` is imported from its ``src/``; the parent's package
is copied into the temporary directory as ``lieext_parent`` and imported
under that name, so both run in this one process.  Each distinct job runs
once on each side untimed, which also compares their exit codes, stdout and
stderr, and then N timed times on each side, the side that goes first
alternating from job to job and from round to round, so a drift in host
speed favours neither.

Prints, per job label, the min-median milliseconds of each side and the
median of the change/parent ratios of its pairs; the p50 and p90 of the
workload's job cycle, each job counted as often as the cycle runs it and
timed by its median; the cycle's total time, the in-process stand-in for
the benchmark's jobs_per_s; each round's own cycle p50 and p90, every job
timed by its run in that round, as min-median-max over the rounds on each
side, with the change/parent ratio of every round; and the number of jobs
whose output differs.  A quantile of per-job medians can move with one job
that drew a slow round; the spread of the per-round quantiles shows how
far.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

import job_digests

SIDES = ("parent", "change")


def cycle_quantiles(times, weights):
    """(p50, p90) of a cycle running job k ``weights[k]`` times, each run
    taking ``times[k]``: the median and the 90th percentile that
    ``perfbench/run.py`` takes of its latencies."""
    latencies = [t for t, w in zip(times, weights) for _ in range(w)]
    if len(latencies) == 1:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def summarize(records):
    """Summary lines for ``records``: one dict per job with its "label", its
    "weight" in the cycle, the seconds of each timed run on each side under
    "parent" and "change", and "same", whether the outputs agree."""
    lines = []
    labels = sorted({r["label"] for r in records})
    for label in labels:
        group = [r for r in records if r["label"] == label]
        cells = []
        for side in SIDES:
            times = [t for r in group for t in r[side]]
            cells.append(f"{side} {min(times) * 1e3:.3g}-{statistics.median(times) * 1e3:.3g} ms")
        ratios = [c / p for r in group for p, c in zip(r["parent"], r["change"])]
        lines.append(f"{label}: {len(group)} jobs, {', '.join(cells)}, "
                     f"change/parent {statistics.median(ratios):.3f}")
    weights = [r["weight"] for r in records]
    cycle = {}
    for side in SIDES:
        medians = [statistics.median(r[side]) for r in records]
        total = sum(w * t for w, t in zip(weights, medians))
        cycle[side] = cycle_quantiles(medians, weights) + (total,)
    for i, name in enumerate(("p50", "p90", "total")):
        parent, change = cycle["parent"][i], cycle["change"][i]
        lines.append(f"cycle {name} ({sum(weights)} jobs): parent {parent * 1e3:.4g} ms, "
                     f"change {change * 1e3:.4g} ms, change/parent {change / parent:.3f}")
    rounds = min(len(r[side]) for r in records for side in SIDES)
    by_round = {side: [cycle_quantiles([r[side][k] for r in records], weights)
                       for k in range(rounds)] for side in SIDES}
    for i, name in enumerate(("p50", "p90")):
        cells = []
        for side in SIDES:
            q = sorted(by_round[side][k][i] * 1e3 for k in range(rounds))
            cells.append(f"{side} {q[0]:.4g}-{statistics.median(q):.4g}-{q[-1]:.4g} ms")
        ratios = " ".join(f"{c[i] / p[i]:.3f}"
                          for p, c in zip(by_round["parent"], by_round["change"]))
        lines.append(f"round {name} ({rounds} rounds): {', '.join(cells)}, "
                     f"change/parent by round {ratios}")
    differ = sum(not r["same"] for r in records)
    lines.append(f"outputs differ on {differ} of {len(records)} jobs")
    return lines


def distinct_jobs(jobs, kind=None, label=None):
    """One entry per distinct argv, with the weights of its repeats summed,
    of the jobs of ``kind`` whose label contains ``label``, where given."""
    merged = {}
    for job in jobs:
        if kind is not None and job["kind"] != kind:
            continue
        if label is not None and label not in job["label"]:
            continue
        key = tuple(job["argv"])
        if key in merged:
            merged[key]["weight"] += job["weight"]
        else:
            merged[key] = {"argv": job["argv"], "label": job["label"], "weight": job["weight"]}
    return list(merged.values())


def load_parent(root, dest):
    """The parent's ``lieext.cli``, from a copy of its package renamed
    ``lieext_parent`` under ``dest``.  The copy reads its package data (the
    shipped certificate scripts) through its own name."""
    pkg = os.path.join(dest, "lieext_parent")
    shutil.copytree(os.path.join(root, "src", "lieext"), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = os.path.join(pkg, "cli.py")
    with open(cli, encoding="utf-8") as fh:
        text = fh.read()
    with open(cli, "w", encoding="utf-8") as fh:
        fh.write(text.replace('resources.files("lieext")', "resources.files(__package__)"))
    sys.path.insert(0, dest)
    return importlib.import_module("lieext_parent.cli")


def timed(cli, argv):
    t0 = time.perf_counter()
    job_digests.run_job(cli, argv)
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout to compare against")
    ap.add_argument("--change", default=".", help="checkout under test (default: .)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--kind", help="time only the jobs of this kind")
    ap.add_argument("--label", metavar="SUBSTRING",
                    help="time only the jobs whose label contains SUBSTRING")
    ap.add_argument("--rounds", type=int, default=5, help="timed runs of each job on each side")
    args = ap.parse_args(argv)
    change = os.path.abspath(args.change)
    parent = os.path.abspath(args.parent)
    sys.dont_write_bytecode = True          # leave no __pycache__ in the checkout
    sys.path[:0] = [os.path.join(change, "src"), os.path.join(change, "perfbench")]
    import gen
    import run
    import lieext.cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        clis = {"parent": load_parent(parent, os.path.join(tmp, "packages")),
                "change": lieext.cli}
        os.chdir(tmp)
        try:
            os.mkdir("inputs")
            jobs = distinct_jobs(job_digests.generate(
                gen, run.ROUNDS, args.workload, args.seed, os.path.join(tmp, "inputs"), "inputs"),
                args.kind, args.label)
            if not jobs:
                ap.error(f"{args.workload} has no jobs of kind {args.kind!r} "
                         f"and label {args.label!r}")
            for job in jobs:
                outputs = [job_digests.run_job(clis[side], job["argv"]) for side in SIDES]
                job["same"] = outputs[0] == outputs[1]
                job["parent"], job["change"] = [], []
            for r in range(args.rounds):
                for k, job in enumerate(jobs):
                    for side in (SIDES if (r + k) % 2 == 0 else SIDES[::-1]):
                        job[side].append(timed(clis[side], job["argv"]))
        finally:
            os.chdir(home)
    kind = f", {args.kind} jobs" if args.kind else ""
    label = f", labels containing {args.label!r}" if args.label else ""
    print(f"{args.workload} seed {args.seed}{kind}{label}: {len(jobs)} distinct jobs, "
          f"{args.rounds} timed runs of each on each side")
    for line in summarize(jobs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
