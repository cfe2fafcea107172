"""Run one script the way the `muiter` command runs it, in this fresh process.

Usage: child.py <spawn time> <repository root>, with a JSON job on stdin:
{"script": path, "expect": {...}, "trace": bool, "keep_spans": bool}.
A job of null only measures set-up.

The spawn time is the parent's `time.monotonic()` just before it started
this interpreter; that clock is system-wide, so interpreter start plus
`import muiter.cli` is timed here.  The script time runs from
`muiter.cli.main` entry until its output is written.  The result is one
JSON object on stdout.
"""

import importlib
import os
import sys
import time


def run(cli, job: dict) -> dict:
    # imported after the set-up timing, which covers muiter alone
    import hashlib
    import io
    import resource
    import traceback

    import oracles
    import spans

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    stdout = sys.stdout
    buffer = io.StringIO()
    sys.stdout = buffer
    code = None
    start = time.perf_counter()
    try:
        code = cli.main([job["script"], "--format", "json"])
    except Exception:  # the script crashed: report it, keep the result line
        traceback.print_exc(file=sys.stderr)
    finally:
        script_s = time.perf_counter() - start
        sys.stdout = stdout
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    output = buffer.getvalue()
    data = output.encode()
    result = {
        "exit": code,
        "script_s": script_s,
        "peak_rss_kib": peak_rss_kib,
        "output_bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "problems": oracles.verify(output, code, job["expect"]),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, tracer.counts)
        result["missing_trace_points"] = tracer.missing
        result["counter_errors"] = tracer.counts["trace.counter_errors"]
        if job["keep_spans"]:
            result["spans"] = tracer.spans
    return result


def main() -> None:
    spawned, root = float(sys.argv[1]), os.path.realpath(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    cli = importlib.import_module("muiter.cli")
    setup_s = time.monotonic() - spawned

    import json

    muiter = sys.modules["muiter"]
    if not os.path.realpath(muiter.__file__).startswith(root + os.sep):
        raise SystemExit(f"muiter imported from {muiter.__file__}, not from {root}")
    job = json.load(sys.stdin)
    result = {"setup_s": setup_s, "kernel": getattr(muiter, "KERNEL_IMPL", "none")}
    if job is not None:
        result.update(run(cli, job))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
