import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from twisted_derivations import __version__
from twisted_derivations.cli import (
    _ACTIONS,
    _BATCH,
    _render,
    _split_top,
    build_parser,
    cmd_basis,
    main,
    parse_endo_spec,
    parse_group_spec,
)


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_derivations", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


def out_json(proc):
    return json.loads(proc.stdout)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip()


def test_group_info_s3():
    blob = out_json(run_cli("group-info", "--group", "builtin:s3"))
    assert blob["job"]["command"] == "group-info"
    assert blob["is_sigma_tau_abelian"] is False
    assert blob["is_fc"] == "true"


def test_classes_s3_identity_pair():
    blob = out_json(run_cli("classes", "--group", "builtin:s3"))
    assert blob["count"] == 3
    assert blob["sizes"] == [1, 2, 3]
    for cls in blob["classes"]:
        assert cls["truncated"] is False
        assert len(cls["elements"]) == cls["size"]


def test_classes_single_element():
    blob = out_json(
        run_cli(
            "classes", "--group", "builtin:heisenberg_Z",
            "--sigma", "inner:[2,3,0]", "--tau", "inner:[2,3,1]",
            "--element", "[0,0,5]",
        )
    )
    assert blob["size"] == 1
    assert blob["truncated"] is False
    assert blob["elements"] == [[0, 0, 5]]


def test_classes_heisenberg_growing_class_truncated():
    blob = out_json(
        run_cli(
            "classes", "--group", "builtin:heisenberg_Z",
            "--sigma", "inner:[2,3,0]", "--tau", "inner:[2,3,1]",
            "--element", "[1,0,0]", "--radius", "3",
        )
    )
    assert blob["truncated"] is True
    assert blob["size"] > 1


def test_center_q8():
    blob = out_json(run_cli("center", "--group", "builtin:q8"))
    assert blob["order"] == 2
    assert len(blob["center"]) == 2
    assert 0 in blob["center"]  # the identity index


def test_center_heisenberg_symbolic():
    blob = out_json(
        run_cli(
            "center", "--group", "builtin:heisenberg_Z",
            "--sigma", "inner:[1,1,0]", "--tau", "inner:[1,1,0]",
        )
    )
    assert blob["center"]["abelianization_rank"] == 1
    assert "order" not in blob


def test_centralizers_report():
    blob = out_json(run_cli("centralizers", "--group", "builtin:s3"))
    assert blob["job"]["group"] == "builtin:s3"
    orders = sorted(entry["order"] for entry in blob["centralizers"])
    assert orders == [2, 3, 6]


def test_derivations_dim_s3():
    blob = out_json(run_cli("derivations", "dim", "--group", "builtin:s3"))
    assert blob["dimension"] == 3
    assert blob["inner_dimension"] == 3


def test_derivations_dim_abelian_is_zero():
    blob = out_json(run_cli("derivations", "dim", "--group", "builtin:c6"))
    assert blob["dimension"] == 0


def test_derivations_basis_spans_leibniz_solutions(tmp_path):
    blob = out_json(
        run_cli(
            "derivations", "basis", "--group", "builtin:q8",
            "--sigma", "inner:i", "--tau", "inner:j",
        )
    )
    assert blob["dimension"] == len(blob["basis"])
    # each basis element round-trips through check-inner
    for entry in blob["basis"]:
        path = tmp_path / "d.json"
        path.write_text(json.dumps(entry))
        check = out_json(
            run_cli(
                "derivations", "check-inner", "--group", "builtin:q8",
                "--sigma", "inner:i", "--tau", "inner:j",
                "--derivation", str(path),
            )
        )
        assert check["is_inner"] is True
        assert check["witness"] is not None


def test_verify_decomposition_q8():
    blob = out_json(
        run_cli(
            "derivations", "verify-decomposition", "--group", "builtin:q8",
            "--sigma", "inner:i", "--tau", "inner:j",
        )
    )
    assert blob["dims_match"] is True
    assert blob["every_basis_vector_inner"] is True
    assert blob["nilpotent_rank2"] is True


def test_quasi_inner_from_potential(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"values": [{"elem": "i", "re": "1", "im": "0"}]}))
    blob = out_json(
        run_cli(
            "derivations", "quasi-inner", "--group", "builtin:q8",
            "--potential", str(path),
        )
    )
    assert blob["quasi_inner"] is True
    assert blob["loop_witness"] is None


def test_heisenberg_derivation_round_trip(tmp_path):
    # the printed table skips zero values; read back on the same ball,
    # the omitted elements are zero and the table is a derivation again
    potential = tmp_path / "p.json"
    potential.write_text(json.dumps(
        {"values": [{"elem": [1, 0, 0], "re": "1"},
                    {"elem": [0, 1, 1], "re": "-2", "im": "1/3"}]}))
    common = ("--group", "builtin:heisenberg_Z", "--sigma", "inner:[1,0,0]",
              "--radius", "2")
    blob = out_json(run_cli("derivations", "quasi-inner", *common,
                            "--potential", str(potential)))
    table = blob["derivation"]
    assert "[0,0,0]" not in table["D"]
    derivation = tmp_path / "d.json"
    derivation.write_text(json.dumps(table))
    back = out_json(run_cli("derivations", "quasi-inner", *common,
                            "--derivation", str(derivation)))
    assert back["quasi_inner"] is True
    assert back["loop_witness"] is None

    key = sorted(table["D"])[0]
    table["D"][key]["terms"][0]["re"] = "5/7"
    derivation.write_text(json.dumps(table))
    proc = run_cli("derivations", "quasi-inner", *common,
                   "--derivation", str(derivation), check=False)
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "NotADerivation"


def test_central_family_report():
    blob = out_json(
        run_cli(
            "derivations", "central", "--group", "builtin:heisenberg_Z",
            "--params", "2,3,-1,0", "--mu", "1", "--nu", "0", "--r", "4",
        )
    )
    assert blob["leibniz_ok"] is True
    assert blob["quasi_inner"] is False
    assert blob["loop_witness"] is not None
    assert blob["pairs_checked"] > 0


def test_central_job_names_the_pair_it_used():
    # the family's pair comes from --params; --sigma, --tau and --radius
    # are accepted but not read, so the job names inner:[sa,sb,sc],
    # inner:[sa,sb,tc] and no radius
    argv = ["derivations", "central", "--group", "builtin:heisenberg_Z",
            "--params", "2,3,0,1", "--mu", "1"]
    ignored = run_cli(*argv, "--sigma", "inner:[5,5,5]", "--tau", "id",
                      "--radius", "6")
    job = out_json(ignored)["job"]
    assert (job["sigma"], job["tau"], job["radius"]) == (
        "inner:[2,3,0]", "inner:[2,3,1]", None)
    assert list(job) == ["command", "group", "group_name", "sigma", "tau",
                         "radius", "action", "params", "mu", "nu", "r",
                         "check_radius"]
    same = run_cli(*argv, "--sigma", "inner:[2,3,0]", "--tau", "inner:[2,3,1]")
    assert same.stdout == ignored.stdout
    # not read, so not parsed: specs no group element fits are no error
    junk = run_cli(*argv, "--sigma", "inner:[9,9]", "--tau", "images:{x:[1,0,0]}")
    assert junk.stdout == ignored.stdout


def test_central_accepts_the_common_options():
    # README documents --sigma, --tau and --radius on central as accepted
    # and not read; the benchmark's central jobs pass them as --opt=value
    proc = run_cli("derivations", "central", "--group=builtin:heisenberg_Z",
                   "--sigma=inner:[1,2,0]", "--tau=inner:[1,2,1]",
                   "--radius=5", "--params=1,2,0,1", "--check-radius=2")
    assert out_json(proc)["job"]["radius"] is None


# each derivations action, run with the options it needs, then with one
# option it does not read: 34 of the 42 action/option pairs
_BASES = {
    "dim": ["--group", "builtin:s3"],
    "basis": ["--group", "builtin:s3"],
    "verify-decomposition": ["--group", "builtin:s3"],
    "check-inner": ["--group", "builtin:s3", "--derivation", "@d.json"],
    "quasi-inner": ["--group", "builtin:s3", "--potential", "@p.json"],
    "central": ["--group", "builtin:heisenberg_Z", "--params", "1,2,0,1",
                "--check-radius", "1"],
}
_OPTIONS = {"--derivation": "@d.json", "--potential": "@p.json",
            "--params": "1,2,3,4", "--mu": "1", "--nu": "1", "--r": "1",
            "--check-radius": "2"}
_READS = {"check-inner": {"--derivation"},
          "quasi-inner": {"--potential", "--derivation"},
          "central": {"--params", "--mu", "--nu", "--r", "--check-radius"}}
_UNREAD = [(action, option) for action in _BASES for option in _OPTIONS
           if option not in _READS.get(action, ())]
assert len(_UNREAD) == 34


def _in_process(capsys, tmp_path, action, extra):
    (tmp_path / "d.json").write_text(json.dumps({"D": {}}))
    (tmp_path / "p.json").write_text(json.dumps({"values": [{"elem": 1, "re": "1"}]}))
    argv = ["derivations", action] + [
        str(tmp_path / arg[1:]) if arg.startswith("@") else arg
        for arg in _BASES[action] + extra]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("action", _BASES)
def test_action_base_invocation_runs(capsys, tmp_path, action):
    code, _out, err = _in_process(capsys, tmp_path, action, [])
    assert code == 0, err


def test_every_action_has_a_handler():
    def subparsers(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a.choices, dict))
    actions = subparsers(subparsers(build_parser())["derivations"])
    assert set(actions) == set(_ACTIONS) == set(_BASES)


@pytest.mark.parametrize("action, option", _UNREAD,
                         ids=[f"{a}{o}" for a, o in _UNREAD])
def test_unread_option_is_refused(capsys, tmp_path, action, option):
    code, out, err = _in_process(capsys, tmp_path, action,
                                 [option, _OPTIONS[option]])
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "SpecError"
    assert err["message"].startswith(
        f"argument error: unrecognized arguments: {option} ")


def test_job_names_only_the_inputs_read(tmp_path):
    derivation = tmp_path / "d.json"
    derivation.write_text(json.dumps({"D": {}}))
    potential = tmp_path / "p.json"
    potential.write_text(json.dumps({"values": [{"elem": 1, "re": "1"}]}))
    s3 = ("--group", "builtin:s3")
    # options an action does not read are refused, not ignored
    for argv in [("dim", *s3, "--params", "1,2,3,4", "--potential", str(potential)),
                 ("quasi-inner", *s3, "--potential", str(potential),
                  "--derivation", str(derivation)),
                 ("quasi-inner", *s3),
                 ("check-inner", *s3, "--derivation", str(derivation),
                  "--potential", str(potential)),
                 ("check-inner", *s3)]:
        proc = run_cli("derivations", *argv, check=False)
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert json.loads(proc.stderr)["error"] == "SpecError", argv
    # the header is the common part, then the options given, in order
    common = ["command", "group", "group_name", "sigma", "tau", "radius"]
    dim = out_json(run_cli("derivations", "dim", *s3))
    assert list(dim["job"]) == common + ["action"]
    quasi = out_json(run_cli("derivations", "quasi-inner", *s3,
                             "--potential", str(potential)))
    assert list(quasi["job"]) == common + ["action", "potential"]
    assert quasi["job"]["potential"] == str(potential)
    quasi = out_json(run_cli("derivations", "quasi-inner", *s3,
                             "--derivation", str(derivation)))
    assert list(quasi["job"]) == common + ["action", "derivation"]
    check = out_json(run_cli("derivations", "check-inner", *s3,
                             "--derivation", str(derivation)))
    assert list(check["job"]) == common + ["action", "derivation"]
    assert check["job"]["derivation"] == str(derivation)
    classes = out_json(run_cli("classes", *s3, "--element", "1"))
    assert list(classes["job"]) == common + ["element"]
    assert list(out_json(run_cli("classes", *s3))["job"]) == common


def test_missing_generator_image_is_malformed():
    proc = run_cli("classes", "--group", "builtin:s3", "--sigma", "images:{}",
                   check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError"
    assert err["message"].startswith("missing image for generator")


def test_derivation_file_naming_one_element_twice(tmp_path):
    # "02" holds 7e and "2" the coboundary's value at 2: read with the
    # last key winning, the table was certified inner
    inner = {"D": {
        "2": {"terms": [{"elem": 3, "re": "-1"}, {"elem": 4, "re": "1"}]},
        "3": {"terms": [{"elem": 2, "re": "-1"}, {"elem": 5, "re": "1"}]},
        "4": {"terms": [{"elem": 2, "re": "1"}, {"elem": 5, "re": "-1"}]},
        "5": {"terms": [{"elem": 3, "re": "1"}, {"elem": 4, "re": "-1"}]}}}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(inner))
    ok = out_json(run_cli("derivations", "check-inner", "--group", "builtin:s3",
                          "--derivation", str(path)))
    assert ok["is_inner"] is True
    path.write_text(json.dumps({"D": {
        "02": {"terms": [{"elem": 0, "re": "7"}]}, **inner["D"]}}))
    proc = run_cli("derivations", "check-inner", "--group", "builtin:s3",
                   "--derivation", str(path), check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError"
    assert err["keys"] == ["02", "2"]


def test_heisenberg_derivation_file_outside_the_ball(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"D": {"[9,9,9]": {"terms": [
        {"elem": [0, 0, 0], "re": "1"}]}}}))
    proc = run_cli("derivations", "quasi-inner", "--group",
                   "builtin:heisenberg_Z", "--sigma", "inner:[1,0,0]",
                   "--tau", "inner:[0,1,0]", "--radius", "2",
                   "--derivation", str(path), check=False)
    assert proc.returncode == 3 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ScopeExceeded"
    assert (err["element"], err["radius"]) == ([9, 9, 9], 2)


def test_images_spec_splits_at_bracket_depth_zero():
    assert _split_top("x:[1,0,0],y:{a:[0,1]}", ",") == ["x:[1,0,0]", "y:{a:[0,1]}"]
    assert _split_top("x:[1,0,0]:z", ":", 1) == ["x", "[1,0,0]:z"]
    assert _split_top(" a ,, b", ",") == [" a ", "", " b"]
    spec = "images:{ g : 2 , }"
    blob = out_json(run_cli("derivations", "dim", "--group", "builtin:c4",
                            "--sigma", spec))
    assert blob["job"]["sigma"] == spec


def test_check_inner_heisenberg_refused_before_reading_file(tmp_path):
    # D(x) = e on B(2) breaks Leibniz at (x, x), but is_inner solves on
    # finite groups only, so the file is never read: exit 3 whatever it holds
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"D": {"[1,0,0]": {"terms": [
        {"elem": [0, 0, 0], "re": "1"}]}}}))
    for path in (bad, tmp_path / "nothing.json"):
        proc = run_cli("derivations", "check-inner", "--group",
                       "builtin:heisenberg_Z", "--radius", "2",
                       "--derivation", str(path), check=False)
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stderr) == {"error": "NotSupportedForScope",
                                           "message": "finite groups only"}


def test_central_check_radius_8():
    # |B(8)|^2 = 1793^2 pairs, proved from the pairs (g, s) with g in B(15)
    blob = out_json(run_cli(
        "derivations", "central", "--group", "builtin:heisenberg_Z",
        "--params", "2,3,0,1", "--mu", "1", "--nu", "-2", "--r", "3",
        "--check-radius", "8"))
    assert blob["pairs_checked"] == 3_214_849
    assert blob["leibniz_ok"] is True


def test_groupoid_export_s3_clusters():
    proc = run_cli("groupoid-export", "--group", "builtin:s3", "--format", "dot")
    assert proc.stdout.startswith("// tool_version:")
    assert proc.stdout.count("subgraph cluster_") == 3
    assert "digraph" in proc.stdout


def test_groupoid_export_heisenberg_requires_radius():
    proc = run_cli(
        "groupoid-export", "--group", "builtin:heisenberg_Z",
        "--sigma", "inner:[1,1,0]", "--tau", "inner:[1,1,0]",
        check=False,
    )
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "NotSupportedForScope"


def test_error_bad_group_spec():
    proc = run_cli("classes", "--group", "builtin:nope", check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "UnsupportedParameter"
    proc = run_cli("classes", "--group", "s3", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


def test_error_group_too_large():
    proc = run_cli(
        "derivations", "dim", "--group", "builtin:cyclic_70", check=False)
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "GroupTooLarge"


def test_error_non_derivation_file(tmp_path):
    # zero everywhere except D(g) = e for one involution g: then
    # D(g*g) = 0 but the rule demands D(g)g + gD(g) = 2g
    bad = {"D": {"1": {"terms": [{"elem": 0, "re": "1", "im": "0"}]}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    proc = run_cli(
        "derivations", "check-inner", "--group", "builtin:s3",
        "--derivation", str(path), check=False,
    )
    assert proc.returncode == 4
    err = json.loads(proc.stderr)
    assert err["error"] == "NotADerivation"
    assert err["witness"]


def test_error_wrong_shape_derivation_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"021": {"e": {"re": "1", "im": "0"}}}))
    proc = run_cli(
        "derivations", "check-inner", "--group", "builtin:s3",
        "--derivation", str(path), check=False,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


def test_error_check_radius_below_one():
    # a check over the ball of radius 0 or less sees no loop and would
    # report quasi_inner true for mu != 0, the opposite of the truth
    for radius in ("-1", "0"):
        proc = run_cli(
            "derivations", "central", "--group", "builtin:heisenberg_Z",
            "--params", "0,0,0,0", "--mu", "1", "--check-radius", radius,
            check=False,
        )
        assert proc.returncode == 2, radius
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"] == "SpecError"
        assert "--check-radius" in err["message"]


def test_error_negative_radius():
    proc = run_cli("classes", "--group", "builtin:heisenberg_Z",
                   "--radius", "-2", check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError"
    assert "--radius" in err["message"]


def test_error_radius_above_cap():
    proc = run_cli("groupoid-export", "--group", "builtin:heisenberg_Z",
                   "--radius", "9", "--format", "dot", check=False)
    assert proc.returncode == 3
    assert proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "ScopeExceeded"
    assert err["radius"] == 9 and err["limit"] == 8


def test_radius_at_cap_is_accepted():
    proc = run_cli("groupoid-export", "--group", "builtin:heisenberg_Z",
                   "--radius", "8", "--format", "dot")
    assert proc.stdout.count("subgraph cluster_") >= 1


def test_error_unwritable_output(tmp_path):
    path = tmp_path / "missing" / "x.json"
    proc = run_cli("classes", "--group", "builtin:s3", "--output", str(path),
                   check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError"
    assert err["path"] == str(path)
    assert not path.exists()


def test_group_info_heisenberg_identity_tau_is_inner():
    blob = out_json(run_cli("group-info", "--group", "builtin:heisenberg_Z",
                            "--tau", "id"))
    assert blob["is_rank2_nilpotent"] is True
    assert blob["center"]["kind"] == "free_abelian"


def test_images_endomorphism_spec():
    blob = out_json(
        run_cli(
            "derivations", "dim", "--group", "builtin:c4",
            "--sigma", "images:{g:2}",
        )
    )
    assert blob["job"]["sigma"] == "images:{g:2}"
    assert blob["dimension"] >= 0


def test_images_endomorphism_bad_generator_label():
    proc = run_cli(
        "derivations", "dim", "--group", "builtin:c4",
        "--sigma", "images:{x:[2]}", check=False,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError"


def test_group_from_file(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "cayley": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        "labels": ["e", "a", "b", "ab"],
    }))
    blob = out_json(run_cli("derivations", "dim", "--group", f"file:{path}"))
    assert blob["dimension"] == 0


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("group_file", [
    {"cayley": 5},
    {"cayley": [[0, 1], 7]},
    {"cayley": [[0, 1], [1, "x"]]},
    {"cayley": [[0, 1], [1, 0.0]]},
    {"cayley": [[0, 1], [True, 0]]},
    {"cayley": KLEIN, "labels": 5},
    {"cayley": KLEIN, "labels": ["e", "a", "b"]},
    {"cayley": KLEIN, "labels": ["e", "a", "a", "ab"]},
    {"cayley": KLEIN, "labels": ["e", "a", "b", 3]},
    {"cayley": KLEIN, "name": {"a": 1}},
    {"family": "cyclic", "param": "x"},
    {"family": "cyclic", "param": 2.5},
    {"family": "cyclic", "param": True},
    {"family": "quaternion8", "param": 8.0},
    {"family": "quaternion8", "param": "8"},
    {"family": "quaternion8", "param": True},
], ids=["table-int", "row-int", "entry-str", "entry-float", "entry-bool",
        "labels-int", "labels-short", "labels-duplicate", "labels-non-str",
        "name-dict", "param-str", "param-float", "param-bool",
        "q8-param-float", "q8-param-str", "q8-param-bool"])
def test_error_malformed_group_file(tmp_path, group_file):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_file))
    proc = run_cli("classes", "--group", f"file:{path}", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


def _terms(**entry):
    return {"D": {"1": {"terms": [entry]}}}


@pytest.mark.parametrize("derivation_file", [
    {"D": []},
    {"D": {"0": 5}},
    {"D": {"x": {"terms": []}}},
    _terms(elem=0, re="abc"),
    _terms(elem=0, re="1/0"),
    _terms(re="1"),
], ids=["table-list", "value-int", "key-str", "re-str", "re-zero-division",
        "term-no-elem"])
def test_error_malformed_derivation_file(tmp_path, derivation_file):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(derivation_file))
    proc = run_cli("derivations", "check-inner", "--group", "builtin:s3",
                   "--derivation", str(path), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


@pytest.mark.parametrize("potential_file", [
    {"values": 5},
    {"values": [{"elem": 0, "re": "abc"}]},
    {"values": [{"re": "1"}]},
], ids=["values-int", "re-str", "entry-no-elem"])
def test_error_malformed_potential_file(tmp_path, potential_file):
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(potential_file))
    proc = run_cli("derivations", "quasi-inner", "--group", "builtin:s3",
                   "--potential", str(path), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


def test_error_malformed_endomorphism_file(tmp_path):
    path = tmp_path / "endo.json"
    path.write_text(json.dumps({"images": 5}))
    proc = run_cli("classes", "--group", "builtin:s3", "--sigma", f"file:{path}",
                   check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


@pytest.mark.parametrize("option, value", [
    ("--element", '["a",0,0]'),
    ("--element", "[1.5,0,0]"),
    ("--sigma", "inner:[true,0,0]"),
], ids=["element-str", "element-float", "sigma-bool"])
def test_error_non_integer_heisenberg_coordinate(option, value):
    proc = run_cli("classes", "--group", "builtin:heisenberg_Z", "--radius", "1",
                   option, value, check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "SpecError"


def test_endo_from_file(tmp_path):
    path = tmp_path / "endo.json"
    path.write_text(json.dumps({"inner": "i"}))
    blob = out_json(
        run_cli(
            "derivations", "dim", "--group", "builtin:q8",
            "--sigma", f"file:{path}", "--tau", "inner:j",
        )
    )
    assert blob["dimension"] == 3


def test_output_flag_writes_file(tmp_path):
    path = tmp_path / "report.json"
    run_cli("classes", "--group", "builtin:s3", "--output", str(path))
    blob = json.loads(path.read_text())
    assert blob["sizes"] == [1, 2, 3]
    # a report written in several batches: the file gets stdout's bytes
    argv = ("derivations", "basis", "--group", "builtin:dihedral_8")
    printed = run_cli(*argv).stdout
    chunks = json.JSONEncoder(indent=2).iterencode(json.loads(printed))
    assert sum(1 for _ in chunks) > 2 * _BATCH
    run_cli(*argv, "--output", str(path))
    assert path.read_bytes() == printed.encode()


def _basis_report(spec):
    """The basis report of the inner pair (3, 4) on the group of spec."""
    group = parse_group_spec(spec)
    body = cmd_basis(None, group, parse_endo_spec(group, "inner:3"),
                     parse_endo_spec(group, "inner:4"), None)
    return {"tool_version": __version__, **body}


def _rendered_with_peak(format, report):
    """(what _render writes, the tracemalloc peak while it writes)."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        _render(argparse.Namespace(format=format, destination=out), report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out.getvalue(), peak


def test_render_streams_in_bounded_batches():
    # the whole text, held as one string or as a list of its chunks,
    # would take several times the report's size on top of the output
    report = _basis_report("builtin:dihedral_18")
    expected = json.dumps(report, indent=2, default=str) + "\n"
    assert len(expected) > 200_000
    text, peak = _rendered_with_peak("json", report)
    assert text == expected
    assert peak < 2 * len(expected)


def test_render_text_streams_in_bounded_batches():
    # one line per top-level key, but a line is written a batch at a
    # time: the basis line alone is nearly the whole report
    report = _basis_report("builtin:dihedral_32")
    expected = "".join(f"{key}: {json.dumps(value, default=str)}\n"
                       for key, value in report.items())
    assert len(expected) > 200_000
    text, peak = _rendered_with_peak("text", report)
    assert text == expected
    assert peak < 2 * len(expected)


class _FullStdout:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_stdout_write_exits_2(capsys):
    with contextlib.redirect_stdout(_FullStdout()):
        code = main(["derivations", "dim", "--group", "builtin:s3"])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "SpecError",
        "message": f"cannot write <stdout>: {os.strerror(errno.ENOSPC)}",
        "path": "<stdout>",
    }


def test_closed_stdout_exits_2(capsys, monkeypatch):
    # the interpreter sets sys.stdout to None when fd 1 is closed
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["derivations", "dim", "--group", "builtin:s3"])
    assert code == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "SpecError",
        "message": f"cannot write <stdout>: {os.strerror(errno.EBADF)}",
        "path": "<stdout>",
    }


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
def test_closed_stdout_exits_2_in_a_process():
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_derivations", "derivations", "dim",
         "--group", "builtin:s3"],
        stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "SpecError",
        "message": f"cannot write <stdout>: {os.strerror(errno.EBADF)}",
        "path": "<stdout>",
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("group", ["builtin:s3", "builtin:dihedral_8"])
def test_failed_stdout_write_exits_2_in_a_process(group):
    # s3's report fails only when flushed, dihedral_8's while being written;
    # either way stderr carries the one error object and nothing after it
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "twisted_derivations", "derivations",
             "basis", "--group", group],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError" and err["path"] == "<stdout>"


def test_text_format():
    proc = run_cli("derivations", "dim", "--group", "builtin:s3", "--format", "text")
    assert "dimension: 3" in proc.stdout


def test_repeated_runs_byte_identical():
    cmds = [
        ("classes", "--group", "builtin:s3"),
        ("centralizers", "--group", "builtin:q8", "--sigma", "inner:i"),
        ("derivations", "basis", "--group", "builtin:d4"),
        ("groupoid-export", "--group", "builtin:c4", "--sigma", "images:{g:2}",
         "--format", "dot"),
    ]
    for cmd in cmds:
        first = run_cli(*cmd).stdout
        second = run_cli(*cmd).stdout
        assert first == second

