"""The benchmark's tracer patches library attributes by name.

bench/tracing.py lists them in SPANS and COUNTS as (module, attribute
path) pairs, and also wraps the handlers in cli._HANDLERS. A refactor
that renames or removes one of them would make `bench/run.py --trace 1`
fail, so every one must resolve against the package. Some hooks also
read arguments (check_leibniz's pairs), so a few CLI jobs run with the
tracer installed. The benchmark file is only read here.
"""

import importlib
import importlib.util
import json
import pathlib

import twisted_derivations
import twisted_derivations.cli
from twisted_derivations import (
    AlgebraElement,
    GaussianRational,
    Potential,
    builtin_group,
    identity_endomorphism,
    inner_derivation,
    inner_endomorphism,
    quasi_inner_from_potential,
)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    tracing = _tracing()
    modules = {name: importlib.import_module(f"twisted_derivations.{name}")
               for name in tracing.LAYERS}
    missing = []
    for module, path, *_ in tracing.SPANS + tracing.COUNTS:
        owner = modules[module]
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert not missing
    assert all(callable(handler) for handler in modules["cli"]._HANDLERS.values())


def test_traced_cli_jobs_run(tmp_path, capsys):
    heisenberg = builtin_group("heisenberg_Z")
    sigma = inner_endomorphism(heisenberg, heisenberg.element((1, 0, 0)))
    tau = inner_endomorphism(heisenberg, heisenberg.element((0, 1, 0)))
    P = Potential(heisenberg, {heisenberg.element((1, 0, 0)): GaussianRational(1)})
    ball_table = tmp_path / "heisenberg.json"
    ball_table.write_text(json.dumps(quasi_inner_from_potential(
        P, sigma, tau).to_json(scope=heisenberg.ball(2))))
    s3 = builtin_group("symmetric", 3)
    e = identity_endomorphism(s3)
    finite_table = tmp_path / "s3.json"
    finite_table.write_text(json.dumps(inner_derivation(
        AlgebraElement.indicator(s3, s3.element(1)), e, e).to_json()))
    jobs = [
        ["derivations", "central", "--group", "builtin:heisenberg_Z",
         "--params", "1,2,0,1", "--mu", "1", "--check-radius", "2"],
        ["derivations", "quasi-inner", "--group", "builtin:heisenberg_Z",
         "--sigma", "inner:[1,0,0]", "--tau", "inner:[0,1,0]",
         "--derivation", str(ball_table), "--radius", "2"],
        ["derivations", "check-inner", "--group", "builtin:s3",
         "--derivation", str(finite_table)],
    ]
    tracer = _tracing().Tracer()
    tracer.install(twisted_derivations)
    try:
        codes = [twisted_derivations.cli.main(argv) for argv in jobs]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    ball2 = heisenberg.ball(2)
    in_ball = set(ball2)
    table_pairs = sum(g2 * g1 in in_ball for g2 in ball2 for g1 in ball2)
    # central answers for every ball pair, the ball table for the pairs
    # whose product stays in the ball, check-inner counts |G|^2 for None
    assert tracer.metrics()["derivations.leibniz_pairs"] == (
        len(ball2) ** 2 + table_pairs + s3.order ** 2)


def test_traced_stdout_bytes_count_every_batch(capsys):
    tracer = _tracing().Tracer()
    tracer.install(twisted_derivations)
    try:
        code = twisted_derivations.cli.main(
            ["derivations", "basis", "--group", "builtin:dihedral_8"])
    finally:
        tracer.uninstall()
    printed = capsys.readouterr().out
    assert code == 0
    # one _render call and the _emit calls of its batches
    assert tracer.calls["cli.render"] > 3
    assert tracer.metrics()["cli.stdout_bytes"] == len(printed.encode())
