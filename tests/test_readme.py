"""The README's config and library examples run as documented."""

import re
from pathlib import Path

from cvp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _example(lang: str, heading: str) -> str:
    """The first fenced ``lang`` block after ``heading``."""
    rest = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", rest, re.S).group(1)


def test_config_example_solves_and_verifies(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(_example("json", "### Config"))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert main(["verify", "--run", str(out / "run.json")]) == 0


def test_library_example_prints_what_it_says(capsys):
    code = _example("python", "## Library use")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        if "#" in line:  # the comment shows the output
            assert out == line.split("#", 1)[1].strip()
