"""Run the command line in a child interpreter, on the package under test."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import muiter


def child_env(**env) -> dict:
    """The environment of a child that imports the same muiter as this process.

    The package's parent directory goes first on its PYTHONPATH, so a
    source checkout needs no install.  env adds or overrides variables.
    """
    src = str(Path(muiter.__file__).resolve().parent.parent)
    out = dict(os.environ, **env)
    out["PYTHONPATH"] = os.pathsep.join(filter(None, [src, out.get("PYTHONPATH")]))
    return out


def muiter_child(script, fmt="json", **env) -> dict:
    """Arguments for subprocess.run or Popen that run `muiter script --format fmt`."""
    return {
        "args": [sys.executable, "-m", "muiter", str(script), "--format", fmt],
        "env": child_env(**env),
    }


# Runs argv[2:] under the limit with its stdout in argv[1], then prints the
# exit code and ru_maxrss.  A child's ru_maxrss counts the memory of the
# process it was forked from, so the command starts from this small launcher,
# not from the test process.
_LAUNCHER = """\
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
with open(sys.argv[1], "w") as sink:
    child = subprocess.Popen(sys.argv[2:], stdout=sink)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_limited(tmp_path, text, fmt="json"):
    """Run a script in a child limited to 1 GiB of address space.

    Returns the exit code, the JSON payload (the text output when fmt is
    "text"), the wall time in seconds and the child's peak RSS in bytes
    (ru_maxrss is in KiB on Linux).  A traceback on the child's stderr
    fails the calling test.
    """
    script, out = tmp_path / "script.mi", tmp_path / "out.json"
    script.write_text(text)
    child = muiter_child(script, fmt)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(out), *child["args"]],
        env=child["env"],
        capture_output=True,
        text=True,
        check=True,
    )
    wall = time.perf_counter() - start
    assert "Traceback" not in done.stderr, done.stderr
    code, maxrss = map(int, done.stdout.split())
    if fmt == "text":
        return code, out.read_text(), wall, maxrss * 1024
    payload = json.loads(out.read_text()) if out.stat().st_size else None
    return code, payload, wall, maxrss * 1024
