"""The README's examples run as written: its Python blocks execute, and each
CLI transcript prints exactly the output shown.

A transcript is a ```sh block of `$ ` command lines, each followed by its
expected stdout.  `$ cat FILE` shows the contents of an input file; the files
of the whole README are written to a fresh directory before each transcript
runs there, in order, through `imptool.cli.main`.
"""

import re
import shlex
from pathlib import Path

import pytest

from imptool.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def _transcript(block):
    """The (command, expected stdout) pairs of a shell block."""
    pairs = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            pairs.append([line[2:].strip(), ""])
        elif pairs:
            pairs[-1][1] += line
    return pairs


TRANSCRIPTS = [
    t for t in map(_transcript, re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)) if t
]
FILES = {
    shlex.split(command)[1]: output
    for transcript in TRANSCRIPTS
    for command, output in transcript
    if command.startswith("cat ")
}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_transcripts():
    shown = {shlex.split(c)[1] for t in TRANSCRIPTS for c, _ in t if c.startswith("imptool ")}
    assert shown == {"run", "trace", "compile", "exec", "verify", "quickcheck"}


@pytest.mark.parametrize(
    "transcript",
    TRANSCRIPTS,
    ids=[[shlex.split(c)[1] for c, _ in t if c.startswith("imptool ")][-1] for t in TRANSCRIPTS],
)
def test_cli_transcript_matches(transcript, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IMP_COLOR", "0")
    for name, contents in FILES.items():
        (tmp_path / name).write_text(contents, encoding="utf-8")
    for command, expected in transcript:
        if command.startswith("cat "):
            continue
        argv = shlex.split(command)
        assert argv[0] == "imptool"
        assert main(argv[1:]) == EXIT_OK, command
        assert capsys.readouterr().out == expected, command
