import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quatgan
from quatgan import cli

MODULES = ["quatgan"] + [f"quatgan.{m.name}" for m in pkgutil.iter_modules(quatgan.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert stale == []


def test_python_dash_m_runs_the_cli():
    """``python -m quatgan`` works from a plain checkout, without installing
    the ``quatgan`` script."""
    src = Path(quatgan.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    cmd = [sys.executable, "-m", "quatgan", "count-params", "--spec", "qdcgan_toy8"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "  total       :       18,472   twin total :       70,693" in done.stdout.splitlines()


def test_cli_docstring_lists_every_subcommand():
    """The ``Subcommands:`` line of ``quatgan --help`` names exactly the
    parser's subcommands, in order."""
    (line,) = [ln for ln in cli.__doc__.splitlines() if ln.startswith("Subcommands:")]
    listed = line.removeprefix("Subcommands:").strip().rstrip(".").split(", ")
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert listed == list(action.choices)
