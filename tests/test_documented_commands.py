"""The command lines and code of README.md and the experiment scripts run."""

import contextlib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from psihilfer.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(section: str, language: str) -> list[str]:
    """The fenced ``language`` blocks of the README section ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, re.S)


CLI_LINES = [line for block in _fenced("CLI", "sh")
             for line in block.splitlines() if line.startswith("psihilfer ")]


def test_readme_lists_every_subcommand():
    assert {line.split()[1] for line in CLI_LINES} == {
        "solve", "linear", "frint", "ml", "bounds", "parse-check"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(tmp_path, monkeypatch, capsys, line):
    configs = Path("scripts", "configs")
    shutil.copytree(ROOT / configs, tmp_path / configs)
    (tmp_path / "samples.csv").write_text(
        "t,h\n" + "".join(f"{k / 8},{(k / 8) ** 2}\n" for k in range(9)))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_readme_library_snippet_runs():
    (snippet,) = _fenced("Library", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    iterations, converged, _ = out.getvalue().split()
    assert int(iterations) >= 1 and converged == "True"


# script -> (arguments small enough for tier-1, its table header)
SCRIPTS = {
    "cross_validate.py": (["--n", "64", "--orders", "0.6"],
                          "psi eta nu gap iters residual last bound"),
    "convergence_study.py": (["--sizes", "64", "128"], "n rel error ratio"),
}


def test_experiment_scripts_run(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # both at once: each spends most of its time importing numpy and scipy
    runs = {name: subprocess.Popen(
                [sys.executable, str(ROOT / "scripts" / name), *args],
                cwd=tmp_path, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for name, (args, _) in SCRIPTS.items()}
    for name, proc in runs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert SCRIPTS[name][1] in {" ".join(line.split())
                                    for line in out.splitlines()}
