"""Alternating benchmark runs of two checkouts, compared pair by pair.

    python3 tools/perf_pairs.py --parent OLD --change NEW --workload W --seed S --pairs N

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once on
each checkout, one right after the other, each run lasting the
``run_seconds`` of the change's ``BENCHMARK.json``; the side that goes first
flips from pair to pair, so a drift in host speed favours neither.  Both
checkouts' ``src/`` and ``perfbench/`` are copied into a temporary directory
and run from there, so nothing is written into either checkout.  Each run's
result line is printed as it comes; then, for every end-to-end metric of
the change's ``BENCHMARK.json``, the median and quartiles of both sides, the
number of pairs in which the change did better, in all and split by the side
that ran first, and the median and range of the change/parent ratios taken
pair by pair.  A drift in host speed moves both runs of a pair together, so
the per-pair ratio separates a small gain from the drift where the two
sides' quartiles overlap; the split shows a host on which the second run of
a pair is slower or faster than the first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics):
    """One line per metric for ``pairs`` of {"parent": m, "change": m,
    "first": side}, each m mapping a metric name to its value and side the
    one of ``SIDES`` that ran first; ``metrics`` lists (name, better) with
    better "higher" or "lower".  A pair counts as a win when the change's
    value is strictly better.  The ratios leave out the pairs whose parent
    value is 0, and read "n/a" when no pair is left."""
    lines = []
    for name, better in metrics:
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        won = [(c > p) if better == "higher" else (c < p)
               for p, c in zip(values["parent"], values["change"])]
        by_first = {side: [w for w, pair in zip(won, pairs) if pair["first"] == side]
                    for side in SIDES}
        split = ", ".join(f"{sum(w)}/{len(w)} {side} first" for side, w in by_first.items())
        cells = []
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            cells.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}]")
        ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
        spread = (f"{statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]"
                  if ratios else "n/a")
        lines.append(f"{name} ({better} is better): {'  '.join(cells)}  "
                     f"change better in {sum(won)}/{len(pairs)} ({split})  "
                     f"change/parent per pair {spread}")
    return lines


def copy_checkout(root, dest):
    """The parts of a checkout that perfbench runs, without build leftovers."""
    skip = shutil.ignore_patterns("__pycache__", "_work")
    for part in ("src", "perfbench"):
        shutil.copytree(os.path.join(root, part), os.path.join(dest, part), ignore=skip)
    return dest


def run_once(checkout, workload, seed, seconds):
    """The metric values of one ``--trace 0`` run, read from its last line."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)} reported {result['failed']} failed jobs")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout to compare against")
    ap.add_argument("--change", required=True, help="checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: copy_checkout(root, os.path.join(tmp, side))
                  for side, root in roots.items()}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(copies[side], args.workload, args.seed, seconds)
                print(f"pair {k + 1} {side}: {json.dumps(pair[side])}", flush=True)
            pairs.append(pair)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g}-s runs")
    for line in summarize(pairs, metrics):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
