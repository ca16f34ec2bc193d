"""The README's Python examples run, and its CLI lines parse, as written."""

import re
import shlex
from pathlib import Path

import pytest

from afc import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
CLI_BLOCK = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE).group(1)
COMMANDS = [shlex.split(line, comments=True) for line in CLI_BLOCK.replace("\\\n", " ").splitlines()]
COMMANDS = [argv for argv in COMMANDS if argv]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"{README.name} python block {index}", "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 8 and all(argv[0] == "afc" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[1:]))
def test_readme_cli_line_parses(argv):
    # parsed, not run: an unknown flag exits through argparse, a refused
    # sweep config raises ValueError
    args = cli._parser().parse_args(argv[1:])
    if args.command.endswith("-sweep"):
        cli._config(args)
