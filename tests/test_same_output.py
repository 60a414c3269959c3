"""tools/same_output.py compares two checkouts' CLI output job by job.

Run on the acceptance commands and the tool's edge cases only: the
repository against itself differs on no job, and against a copy whose
version string is changed it differs on every acceptance command, which
the tool reports with exit status 1.
"""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

from test_acceptance import CLI_COMMANDS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_output.py"


def edge_case_count():
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return len(module.EDGE_CASES)


def same_output(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--rounds", "0"],
        capture_output=True, text=True, timeout=300)


def test_same_output_against_itself_and_a_changed_copy(tmp_path):
    total = len(CLI_COMMANDS) + edge_case_count()
    proc = same_output(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == f"{total} jobs, 0 differ\n"

    shutil.copytree(ROOT / "src" / "twisted_derivations",
                    tmp_path / "src" / "twisted_derivations",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "twisted_derivations" / "__init__.py"
    init.write_text(init.read_text().replace(
        '__version__ = "0.1.0"', '__version__ = "0.1.0+changed"'))
    proc = same_output(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    named = [line.split(": ", 1)[1] for line in lines if line.startswith("job ")]
    assert lines[-1] == f"{total} jobs, {len(named)} differ"
    # the acceptance commands come first, and each prints the version
    assert named[:len(CLI_COMMANDS)] == [" ".join(c) for c in CLI_COMMANDS]
