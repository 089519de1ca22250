"""The command examples of README.md, run as goldens.

Every ``bargainlab ...`` line of the README's ``sh`` blocks (continuation
lines joined) runs through ``cli.main`` in a temporary working directory.
Each must exit 0 and write the pinned bytes: the sha256 of every file it
writes, and of stdout for the one command that names no output file.  The
``regret`` example reads the adversary file that
``scripts/run_regret_curves.sh`` writes.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from bargainlab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list:
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bargainlab "):
                commands.append(shlex.split(line)[1:])
    return commands


def _script_adversary() -> str:
    script = (ROOT / "scripts" / "run_regret_curves.sh").read_text()
    return re.search(r"<<'EOF'\n(.*?)^EOF$", script, re.S | re.M).group(1)


EXAMPLES = _examples()

# per example, in README order: {written file, or "<stdout>": sha256}
EXPECTED = [
    {"run.json": "95c15b3770bfc8acd54c002670152e6c57b97a4f6d19a526c6f465f8fa88e3c9"},
    {
        "agg.csv": "6514439aa22983d820398b8e051d5b21538fa0688b1aa0923bf7879c96a13c7c",
        "cells.csv": "38c305422fae48a40d256ceb53dd4f64b94b8b5ae3ffbbc59bdb23d2bba22549",
        "heat.svg": "abba3018a6b4e80887bd0a0068e7a5bc8edd0f0885208e92bf772ea5ec11cde3",
    },
    {"region.csv": "2974253dd9fb16d06cb7f7f87d4f39394f348a50b23a2d927ab43e359d35ffdc"},
    {"<stdout>": "ddd793942854c60a656a8b3c6d9ddeb6cd6a7989c613d09afe8138a794ceb492"},
    {"regret.csv": "6c59cbcff5e6543b7da8361f401c58e725c370d61fcf9e40354888ca9f0a06fe"},
    {"report.json": "2af25a4d136d770f9b0afba74cc6e7817e07931b64cc0fee85d273c13642669f"},
]


def test_every_readme_example_is_pinned():
    assert [argv[0] for argv in EXAMPLES] == [
        "run", "sweep", "spe-region", "spe-region", "regret", "verify-spe",
    ]
    assert len(EXPECTED) == len(EXAMPLES)


@pytest.mark.parametrize(
    "index", range(len(EXAMPLES)),
    ids=[f"{i}-{argv[0]}" for i, argv in enumerate(EXAMPLES)],
)
def test_readme_example_output(tmp_path, monkeypatch, capsys, index):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BARGAINLAB_JOBS", raising=False)
    (tmp_path / "adversary.json").write_text(_script_adversary())
    assert main(EXAMPLES[index]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir() if path.name != "adversary.json"
    }
    out = capsys.readouterr().out
    if out:
        digests["<stdout>"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == EXPECTED[index]
