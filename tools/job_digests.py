"""Digest the output of every distinct benchmark job, to compare two checkouts.

    python3 tools/job_digests.py --root CHECKOUT > digests.txt

Generates the inputs of both perfbench workloads at seeds 1-3 with
CHECKOUT's ``perfbench/gen.py``, drawn exactly as ``perfbench/run.py``
draws them, into a temporary directory outside the checkout.  Each
distinct argv then runs once through CHECKOUT's ``lieext.cli.run``, and so
does ``sl2 FILE --x X`` for each distinct FILE and X of a classify job, the
sl2 stage of that job on its own.  One line is printed per generated file
and one per job, each with a digest of its content or of the job's exit
code, stdout and stderr, so ``diff`` of the output for two checkouts names
every job whose answer changed.  Nothing is written into the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import sys
import tempfile

SEEDS = (1, 2, 3)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def generate(gen, rounds, workload, seed, outdir, rel):
    """Write one run's inputs and return its job dicts (argv, kind, label,
    weight in its round's cycle).

    run.py shuffles each round's job cycle with the generator that draws the
    inputs, so the shuffle is repeated here to keep later rounds identical."""
    inputs = gen.Inputs(outdir, rel)
    rng = random.Random(f"{workload}:{seed}")
    for r in range(rounds):
        inputs.round = r
        gen.GENERATORS[workload](inputs, rng)
        cycle = [k for k, job in enumerate(inputs.jobs) if job["round"] == r
                 for _ in range(job["weight"])]
        rng.shuffle(cycle)
    return inputs.jobs


def run_job(cli, argv):
    """Exit code, stdout and stderr of one in-process ``cli.run`` call."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        rc = cli.run(argv)
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    return rc, out.getvalue(), err.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, help="checkout whose src/ and perfbench/ are used")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True          # leave no __pycache__ in the checkout
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import gen
    import run
    import lieext.cli as cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # Job argv name their files relative to the temporary directory, so
        # the printed lines do not depend on where it is.
        os.chdir(tmp)
        try:
            argvs = []
            for workload in run.WORKLOADS:
                for seed in SEEDS:
                    rel = f"{workload}-s{seed}"
                    os.mkdir(rel)
                    jobs = generate(gen, run.ROUNDS, workload, seed, os.path.join(tmp, rel), rel)
                    argvs += [job["argv"] for job in jobs]
            for rel in sorted(os.listdir(tmp)):
                for name in sorted(os.listdir(rel)):
                    with open(os.path.join(rel, name), "rb") as fh:
                        print(f"file {digest(fh.read())} {rel}/{name}")
            sl2 = [["sl2", *job[1:4]] for job in argvs if job[0] == "classify"]
            seen = set()
            for job in argvs + sl2:
                if tuple(job) in seen:
                    continue
                seen.add(tuple(job))
                rc, out, err = run_job(cli, job)
                text = json.dumps([rc, out, err]).encode()
                print(f"job {digest(text)} rc={rc} {' '.join(job)}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
