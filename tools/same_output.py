"""Check that two checkouts print the same bytes for the same CLI jobs.

    python3 tools/same_output.py OLD NEW [--rounds 2]

OLD and NEW are checkout roots. The job list is --rounds rounds of each
benchmark workload at seed 1 (from this checkout's bench/workloads.py,
with every file they read written once to a shared directory), then the
CLI_COMMANDS of tests/test_acceptance.py, then EDGE_CASES below. Each
checkout runs the whole list in its own interpreter, importing
twisted_derivations from its src/ and calling cli.main(argv) once per
job through bench/run.call_cli. Every job whose exit code, stdout or
stderr differs is printed, and the exit status is 1 if any does.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1

# files the edge cases read, written to one directory; an argument
# "@name" is the path of that file there, which need not exist
EDGE_FILES = {
    "s3_pot.json": {"values": [{"elem": 1, "re": "1"}]},
    # the coboundary of s3_pot.json for sigma = tau = id
    "s3_inner.json": {"D": {
        "2": {"terms": [{"elem": 3, "re": "-1"}, {"elem": 4, "re": "1"}]},
        "3": {"terms": [{"elem": 2, "re": "-1"}, {"elem": 5, "re": "1"}]},
        "4": {"terms": [{"elem": 2, "re": "1"}, {"elem": 5, "re": "-1"}]},
        "5": {"terms": [{"elem": 3, "re": "1"}, {"elem": 4, "re": "-1"}]}}},
    "heis_pot.json": {"values": [{"elem": [1, 0, 0], "re": "1"}]},
    # integral coefficients, as ints and as strings
    "heis_int_pot.json": {"values": [
        {"elem": [1, 0, 0], "re": 2, "im": -1},
        {"elem": [0, 1, 0], "re": "-3"},
        {"elem": [-1, 0, 1], "re": 1, "im": "4"}]},
    "heis_zero.json": {"D": {}},
    # D(x) = e, zero elsewhere: breaks Leibniz at (x, x^-1) for any pair
    "heis_bad.json": {"D": {"[1,0,0]": {"terms": [{"elem": [0, 0, 0], "re": "1"}]}}},
    # s3_inner.json with element 2 also named "02", there valued 7e
    "s3_twice.json": {"D": {
        "02": {"terms": [{"elem": 0, "re": "7"}]},
        "2": {"terms": [{"elem": 3, "re": "-1"}, {"elem": 4, "re": "1"}]},
        "3": {"terms": [{"elem": 2, "re": "-1"}, {"elem": 5, "re": "1"}]},
        "4": {"terms": [{"elem": 2, "re": "1"}, {"elem": 5, "re": "-1"}]},
        "5": {"terms": [{"elem": 3, "re": "1"}, {"elem": 4, "re": "-1"}]}}},
    # one entry, far outside any ball a query reads
    "heis_far.json": {"D": {"[9,9,9]": {"terms": [{"elem": [0, 0, 0], "re": "1"}]}}},
}

HEIS = ["--group", "builtin:heisenberg_Z"]
HEIS_PAIR = HEIS + ["--sigma", "inner:[1,0,0]", "--tau", "inner:[0,1,0]"]
# neither map is inner: sigma(x) = (1, 1, 2) gives the closed form's
# C(a,2) p0 p1 term a value no inner map gives it, and tau is not injective
HEIS_IMAGES = HEIS + ["--sigma", "images:{[1,0,0]:[1,1,2],[0,1,0]:[0,1,-1]}",
                      "--tau", "images:{[1,0,0]:[2,0,1],[0,1,0]:[0,0,3]}",
                      "--radius", "3"]
# inner maps written as images: conjugation by (3, 2, .) and by (1, -1, .)
HEIS_INNER_IMAGES = HEIS + [
    "--sigma", "images:{[1,0,0]:[1,0,-2],[0,1,0]:[0,1,3]}",
    "--tau", "images:{[1,0,0]:[1,0,1],[0,1,0]:[0,1,1]}", "--radius", "3"]
S3 = ["--group", "builtin:s3"]

# options an action does not read, unparseable specs, missing images,
# missing, refused and doubly keyed files, and scope refusals
EDGE_CASES = [
    ["derivations", "central"] + HEIS + ["--params", "1,2,0,0",
                                          "--sigma", "inner:[9,9]"],
    ["derivations", "central"] + HEIS + [
        "--params", "1,2,0,0", "--sigma", "inner:[1,2,0]",
        "--tau", "inner:[1,2,0]", "--derivation", "@nothing.json"],
    ["derivations", "central"] + HEIS + ["--params", "1,2,0,0",
                                          "--tau", "images:{x:[1,0,0]}"],
    ["derivations", "central"] + S3 + ["--params", "junk"],
    ["derivations", "central"] + S3 + ["--params", "1,2,3,4",
                                        "--sigma", "inner:[9,9]"],
    ["derivations", "central"] + HEIS,
    ["derivations", "central"] + HEIS + ["--params", "1,x,0,0"],
    ["derivations", "dim"] + S3 + ["--params", "1,2,3,4",
                                    "--potential", "@nothing.json"],
    ["derivations", "dim"] + S3 + ["--sigma", "inner:[9,9]"],
    ["derivations", "quasi-inner"] + S3 + ["--potential", "@s3_pot.json",
                                            "--derivation", "@s3_inner.json"],
    ["derivations", "quasi-inner"] + S3 + ["--derivation", "@s3_inner.json"],
    ["derivations", "check-inner"] + S3 + ["--derivation", "@s3_inner.json",
                                            "--potential", "@s3_pot.json"],
    ["derivations", "check-inner"] + S3 + ["--derivation", "@nothing.json"],
    ["derivations", "check-inner"] + HEIS_PAIR + [
        "--radius", "2", "--derivation", "@heis_zero.json"],
    ["derivations", "check-inner"] + HEIS_PAIR + [
        "--radius", "2", "--derivation", "@heis_bad.json"],
    ["derivations", "check-inner"] + HEIS + ["--derivation", "@nothing.json"],
    ["derivations", "quasi-inner"] + HEIS_PAIR + [
        "--radius", "7", "--derivation", "@heis_bad.json"],
    ["derivations", "quasi-inner"] + HEIS_PAIR + [
        "--radius", "3", "--derivation", "@heis_zero.json"],
    ["derivations", "quasi-inner"] + HEIS_PAIR + [
        "--radius", "3", "--potential", "@heis_pot.json"],
    ["derivations", "check-inner"] + S3 + ["--derivation", "@s3_twice.json"],
    ["derivations", "quasi-inner"] + HEIS_PAIR + [
        "--radius", "2", "--derivation", "@heis_far.json"],
    ["derivations", "verify-decomposition"] + HEIS,
    ["group-info"] + HEIS + ["--sigma", "inner:[2,3,0]",
                             "--tau", "inner:[2,3,1]", "--radius", "2"],
    ["group-info"] + S3 + ["--format", "text"],
    ["group-info"] + HEIS + ["--sigma", "images:{x:[1,0,0],y:[0,1,0]}",
                             "--tau", "id", "--radius", "2"],
    ["classes"] + S3 + ["--element", "1"],
    ["classes"] + S3 + ["--sigma", "images:{}"],
    ["centralizers"] + HEIS + ["--sigma", "inner:[1,0,0]",
                               "--element", "[0,0,1]", "--radius", "2"],
    ["center"] + HEIS + ["--sigma", "inner:[1,0,0]", "--tau", "inner:[1,0,0]"],
    ["groupoid-export"] + HEIS + ["--sigma", "inner:[1,1,0]"],
    ["classes"] + HEIS_IMAGES,
    ["groupoid-export"] + HEIS_IMAGES,
    ["derivations", "quasi-inner"] + HEIS_IMAGES + [
        "--potential", "@heis_pot.json"],
    ["group-info"] + HEIS_INNER_IMAGES,
    ["centralizers"] + HEIS_INNER_IMAGES,
    ["center"] + HEIS_INNER_IMAGES,
    # Leibniz proofs on the cover B(9), past any benchmark round's radius
    ["derivations", "central"] + HEIS + [
        "--sigma", "inner:[2,-1,0]", "--tau", "inner:[2,-1,3]",
        "--params", "2,-1,0,3", "--mu", "3", "--nu", "-2", "--r", "1",
        "--check-radius", "5"],
    ["derivations", "central"] + HEIS + [
        "--sigma", "inner:[2,-1,0]", "--tau", "inner:[2,-1,3]",
        "--params", "2,-1,0,3", "--mu", "0", "--nu", "0", "--r", "1",
        "--check-radius", "5"],
    # integral characters: every scalar of the Leibniz proof has int parts
    ["derivations", "central"] + HEIS + [
        "--params", "1,2,-1,3", "--mu", "2", "--nu", "-3", "--r", "2",
        "--check-radius", "4"],
    ["derivations", "quasi-inner"] + HEIS_PAIR + [
        "--radius", "3", "--potential", "@heis_int_pot.json"],
]

# run in each checkout: argv is this checkout's root, the checkout's
# src dir, the jobs file and the results file
WORKER = """
import json, os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "bench"))
from run import call_cli
sys.path.insert(0, sys.argv[2])
from twisted_derivations.cli import main
results = [call_cli(main, argv) for argv in json.load(open(sys.argv[3]))]
json.dump(results, open(sys.argv[4], "w"))
"""


def acceptance_commands():
    """tests/test_acceptance.CLI_COMMANDS, read without importing the tests."""
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "CLI_COMMANDS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"same_output: no CLI_COMMANDS in {path}")


def workload_jobs(rounds, workdir):
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    jobs = []
    for name in workloads.WORKLOADS:
        stream_dir = os.path.join(workdir, name)
        os.makedirs(stream_dir)
        stream = workloads.Stream(name, SEED, stream_dir)
        for _ in range(rounds):
            jobs.extend(job.argv for job in stream.next_round())
    return jobs


def edge_jobs(workdir):
    edge_dir = os.path.join(workdir, "edge")
    os.makedirs(edge_dir)
    for name, obj in EDGE_FILES.items():
        with open(os.path.join(edge_dir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return [[os.path.join(edge_dir, arg[1:]) if arg.startswith("@") else arg
             for arg in argv] for argv in EDGE_CASES]


def run_all(checkouts, jobs_path, workdir):
    """Start one worker per checkout, then wait for them; their results."""
    procs = []
    for i, checkout in enumerate(checkouts):
        src = os.path.join(os.path.abspath(checkout), "src")
        if not os.path.isdir(os.path.join(src, "twisted_derivations")):
            raise SystemExit(f"same_output: no src/twisted_derivations in {checkout}")
        out = os.path.join(workdir, f"results_{i}.json")
        procs.append((subprocess.Popen(
            [sys.executable, "-c", WORKER, ROOT, src, jobs_path, out]),
            out, checkout))
    results = []
    for proc, out, checkout in procs:
        if proc.wait() != 0:
            raise SystemExit(f"same_output: the worker for {checkout} failed")
        with open(out, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=2,
                        help="rounds of each workload; 0 runs no workload job")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_output_") as workdir:
        jobs = workload_jobs(args.rounds, workdir)
        jobs += acceptance_commands() + edge_jobs(workdir)
        jobs_path = os.path.join(workdir, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        old, new = run_all([args.old, args.new], jobs_path, workdir)
    differ = 0
    for i, (job, a, b) in enumerate(zip(jobs, old, new)):
        if a == b:
            continue
        differ += 1
        print(f"job {i}: {' '.join(job)}")
        for name, x, y in zip(("exit", "stdout", "stderr"), a, b):
            if x != y:
                print(f"  {name}\n    old: {x!r:.300}\n    new: {y!r:.300}")
    print(f"{len(jobs)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
