"""Tests of the benchmark itself: its reference groups, its checkers, and
the determinism its digests rely on.

    python3 -m pytest bench/test_bench.py -q

Each checker is run on a real output of the program first (it must
pass) and then on a deliberately wrong copy of that output (it must
fail).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import refgroups as rg
import run
import tracing
import workloads

PACKAGE = run.load_package()
WORK = os.path.join(run.ROOT, run.WORK, "inputs", "bench-tests")


@pytest.fixture(scope="module")
def samples():
    """One real job and its output per job kind, smallest band first."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    out = {}
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    try:
        for workload in workloads.WORKLOADS:
            stream = workloads.Stream(workload, 7, WORK)
            jobs = sorted(stream.next_round(), key=lambda j: "ASBPMCDL".index(j.band))
            for job in jobs:
                if job.kind in out or job.band == "L":
                    continue
                result = run.call_cli(PACKAGE.cli.main, job.argv)
                if job.kind != "basis" or json.loads(result[1])["basis"]:
                    out[job.kind] = (job, *result)
    finally:
        os.chdir(cwd)
    return out


def test_every_kind_is_sampled(samples):
    assert set(samples) == set(checks.CHECKS)


def test_real_outputs_pass(samples):
    for kind, (job, code, stdout, stderr) in samples.items():
        assert checks.check(job, code, stdout, stderr) is None, kind


def _mutated(samples, kind, mutate, stream="stdout"):
    job, code, stdout, stderr = samples[kind]
    job = copy.deepcopy(job)
    if stream == "stdout":
        data = json.loads(stdout)
        mutate(data)
        stdout = json.dumps(data)
    elif stream == "stderr":
        data = json.loads(stderr)
        mutate(data)
        stderr = json.dumps(data)
    else:
        stdout = mutate(stdout)
    return checks.check(job, code, stdout, stderr)


def _bump_first_coefficient(terms):
    terms[0]["re"] = str(Fraction(terms[0]["re"]) + 1)


def _first_nonempty(table):
    return next(v["terms"] for v in table["D"].values() if v["terms"])


MUTATIONS = {
    "dim": lambda d: d.update(dimension=d["dimension"] + 1),
    "basis": lambda d: d.update(dimension=d["dimension"] - 1),
    "verify": lambda d: d.update(dim_der=d["dim_der"] + 1),
    "check-inner": lambda d: _bump_first_coefficient(d["witness"]["terms"]),
    "quasi-inner": lambda d: _bump_first_coefficient(_first_nonempty(d["derivation"])),
    "central": lambda d: d.update(pairs_checked=d["pairs_checked"] - 1),
    "classes": lambda d: d["classes"][-1]["elements"].pop(),
    "centralizers": lambda d: d["centralizers"][0]["centralizer"].update(
        conditions=[[7, 7]]),
    "group-info": lambda d: d.update(is_fc="true"),
    "heis-quasi-inner": lambda d: _bump_first_coefficient(
        _first_nonempty(d["derivation"])),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
def test_checker_rejects_wrong_output(samples, kind):
    assert _mutated(samples, kind, MUTATIONS[kind]) is not None


def test_dimension_off_by_one_in_either_direction(samples):
    for delta in (-1, 1):
        assert _mutated(samples, "dim", lambda d: d.update(
            dimension=d["dimension"] + delta)) is not None


def test_basis_missing_a_vector(samples):
    assert _mutated(samples, "basis", lambda d: d["basis"].pop()) is not None


def test_refusal_with_a_fake_violating_pair(samples):
    job = samples["refuse"][0]
    e = job.facts["group"].labels[job.facts["group"].identity]
    # D(e e) = D(e) tau(e) + sigma(e) D(e) holds for every table with D(e) = 0
    assert _mutated(samples, "refuse", lambda d: d.update(witness=[e, e]),
                    stream="stderr") is not None


def test_export_with_a_missing_or_repeated_node(samples):
    def drop(text):
        lines = text.splitlines(keepends=True)
        node = next(i for i, line in enumerate(lines) if checks._NODE.match(line.rstrip("\n")))
        return "".join(lines[:node] + lines[node + 1:])

    def repeat(text):
        lines = text.splitlines(keepends=True)
        node = next(i for i, line in enumerate(lines) if checks._NODE.match(line.rstrip("\n")))
        return "".join(lines[:node] + [lines[node]] + lines[node:])

    assert _mutated(samples, "export", drop, stream="raw") is not None
    assert _mutated(samples, "export", repeat, stream="raw") is not None


def test_central_loop_witness_must_match(samples):
    job = samples["central"][0]
    if job.facts["mu"] == job.facts["nu"] == 0:
        assert _mutated(samples, "central", lambda d: d.update(
            loop_witness=[[0, 0, 0], [1, 0, 0]])) is not None
    else:
        assert _mutated(samples, "central", lambda d: d.update(
            loop_witness=[[9, 9, 9], d["loop_witness"][1]])) is not None
    assert _mutated(samples, "central", lambda d: d.update(
        quasi_inner=not d["quasi_inner"])) is not None


def test_wrong_exit_code_fails(samples):
    job, _code, stdout, stderr = samples["dim"]
    assert checks.check(job, 2, stdout, stderr) is not None


def test_leibniz_scan_finds_a_planted_violation():
    group = rg.dihedral(4)
    ident = list(range(group.order))
    assert next(checks.leibniz_violations(group, ident, ident, {}), None) is None
    planted = {3: {5: (Fraction(1, 2), Fraction(0))}}
    assert next(checks.leibniz_violations(group, ident, ident, planted), None) \
        is not None


@pytest.mark.parametrize("ref, name", [
    (rg.cyclic(12), ("cyclic", 12)),
    (rg.dihedral(8), ("dihedral", 8)),
    (rg.symmetric(4), ("symmetric", 4)),
    (rg.quaternion8(), ("quaternion8", None)),
    (rg.heisenberg_mod(3), ("heisenberg_mod", 3)),
])
def test_reference_groups_match_the_documented_order(ref, name):
    group = PACKAGE.builtin_group(*name)
    assert group.cayley == ref.table
    assert group.labels == ref.labels
    assert [g.payload for g in group.generators] == ref.generators()


def test_heisenberg_ball_sizes():
    assert [len(rg.heis_ball(r)) for r in (3, 4, 5, 6)] == [53, 135, 299, 593]


DIGESTS = """
import json, os, sys
sys.path.insert(0, {bench!r})
import run, workloads
package = run.load_package()
os.chdir(run.ROOT)
out = []
for workload in workloads.WORKLOADS:
    stream = workloads.Stream(workload, 5, {work!r})
    for job in stream.next_round():
        if job.band in ("A", "B", "S"):
            code, stdout, stderr = run.call_cli(package.cli.main, job.argv)
            out.append([code, len(stdout), __import__("hashlib").sha256(
                (stdout + stderr).encode()).hexdigest()])
print(json.dumps(out))
"""


def test_stdout_digests_repeat_across_processes():
    """Two processes with different hash seeds print the same bytes."""
    work = os.path.join(run.ROOT, run.WORK, "inputs", "bench-digests")
    code = DIGESTS.format(bench=run.BENCH_DIR, work=work)
    results = []
    for hash_seed in ("0", "1"):
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=600,
                              env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    shutil.rmtree(work, ignore_errors=True)
    assert len(results[0]) > 40
    assert results[0] == results[1]


def test_every_documented_figure_is_produced():
    produced = set(tracing.Tracer().metrics()) | {
        "trace.untraced_s", "trace.overhead_s", "trace.overhead_ratio"}
    with open(os.path.join(run.BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        documented = {name for entry in json.load(fh)["per_layer"]
                      for name in entry["metrics"]}
    assert documented <= produced
    assert set(run.PER_LAYER) <= documented


def test_a_traceback_is_a_failed_job(samples):
    code, stdout, stderr = run.call_cli(lambda argv: 1 / 0, [])
    assert code is None and "ZeroDivisionError" in stderr
    assert checks.check(samples["dim"][0], code, stdout, stderr) is not None


def test_tracer_counts_spans_and_restores_the_library(samples):
    job = samples["dim"][0]
    before = (PACKAGE.cli.is_inner, PACKAGE.structure.derivation_space,
              PACKAGE.groups.Group.multiply, PACKAGE.cli._HANDLERS["derivations"])
    tracer = tracing.Tracer()
    tracer.install(PACKAGE)
    try:
        assert PACKAGE.structure.derivation_space is not before[1]
        tracer.run_job(0, lambda: run.call_cli(PACKAGE.cli.main, job.argv))
    finally:
        tracer.uninstall()
    after = (PACKAGE.cli.is_inner, PACKAGE.structure.derivation_space,
             PACKAGE.groups.Group.multiply, PACKAGE.cli._HANDLERS["derivations"])
    assert after == before
    assert "parse_args" not in vars(PACKAGE.cli._Parser)
    figures = tracer.metrics()
    assert figures["linalg.int_rows_fed"] > 0
    assert figures["linalg.int_rank_total"] == figures["linalg.int_rows_useful"]
    assert figures["groups.ball_size"] == 0
    layers = sum(figures[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert abs(layers + figures["trace.unspanned_s"] - figures["trace.traced_s"]) < 1e-6
