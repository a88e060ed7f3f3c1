"""Every ```python block of README.md runs as written, and every `netfunc …`
line of its ```sh blocks exits 0 through the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from netfunc import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("netfunc ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    # in order, in one directory: later lines read the files earlier ones write
    assert COMMANDS
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
