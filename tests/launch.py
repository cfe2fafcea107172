"""Run the command line in a child interpreter, on the package under test."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import muiter


def muiter_child(script, **env) -> dict:
    """Arguments for subprocess.run or Popen that run `muiter script --format json`.

    The child imports the same muiter as this process: the package's parent
    directory goes first on its PYTHONPATH, so a source checkout needs no
    install.  env adds or overrides environment variables.
    """
    src = str(Path(muiter.__file__).resolve().parent.parent)
    child_env = dict(os.environ, **env)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, child_env.get("PYTHONPATH")])
    )
    return {
        "args": [sys.executable, "-m", "muiter", str(script), "--format", "json"],
        "env": child_env,
    }
