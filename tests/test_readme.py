"""The README's examples run: every `twisted-derivations ...` command
that needs no input file, through `python -m twisted_derivations`, and
the "Library in five lines" snippet. Each must exit 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _cli_examples():
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if (words[:1] == ["twisted-derivations"]
                    and not any(".json" in w or "file:" in w for w in words)):
                examples.append(words[1:])
    return examples


CLI_EXAMPLES = _cli_examples()
SNIPPET = re.search(r"## Library in five lines\n\n```python\n(.*?)```",
                    README, re.S)


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, cwd=ROOT)


def test_readme_examples_found():
    assert SNIPPET is not None
    assert any(words[:2] == ["derivations", "central"] for words in CLI_EXAMPLES)


@pytest.mark.parametrize("words", CLI_EXAMPLES,
                         ids=[" ".join(w[:3]) for w in CLI_EXAMPLES])
def test_readme_cli_example(words):
    proc = _run(["-m", "twisted_derivations", *words])
    assert proc.returncode == 0, proc.stderr


def test_readme_library_snippet():
    proc = _run(["-c", SNIPPET.group(1)])
    assert proc.returncode == 0, proc.stderr
