"""End-to-end benchmark of muiter: generated scripts through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 25 --trace 0

Traffic is a closed loop with one client: one script at a time, each in a
fresh interpreter that runs `muiter.cli.main([script, "--format", "json"])`
as the `muiter` command does, so every script pays for imports and starts
with cold memo tables.  The run repeats the workload's scripts until
`--seconds` have passed; the first pass always completes.  Every output is
checked against an oracle in `oracles.py` that does not use muiter.

With `--trace 0` the last line of stdout carries the end-to-end metrics,
with `--trace 1` the per-layer metrics from spans around each layer's entry
points (see `spans.py`); each script then also runs untraced, for the
tracing overhead and to check that tracing leaves the output unchanged.
Per-script records and the spans of one traced pass go to perfbench/out/.

Times are given at a fixed reference speed.  The speed of a shared host's
processor can change by 1.8x from one second to the next, so raw times of
the same code spread past any useful bound.  The run therefore pins itself
and every child to one processor, and while a child lives the parent wakes
every SAMPLE_EVERY_S and times `reference_piece()`, a fixed slice of plain
Python that does not use muiter, in its own CPU time.  Each time the child
reports is multiplied by REFERENCE_PIECE_S over the mean of those samples.
Raw times stay in the records and are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "muiter")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
# metric names, order and units
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# A script that takes longer is stopped and fails.  About 7x the slowest
# script at the seed (a 3 s fold), so only a hang or a large regression hits it.
WALL_LIMIT_S = 20.0
# No script starts after this, even when the first pass is incomplete, and a
# script left unrun fails: with a last traced pair at the wall limit a run
# still ends inside the 180 s it may take.
HARD_STOP_S = 120.0
# set-up-only children at the start of a run, besides one per script
SETUP_PROBES = 5
# how often the parent times a reference piece while a child runs; the
# pieces take about 4% of the processor from the child
SAMPLE_EVERY_S = 0.025
# what `reference_piece()` takes at the reference speed: about its time on
# an idle 2-vCPU Intel Xeon virtual machine, Python 3.11
REFERENCE_PIECE_S = 0.001
# processors this process may use, taken before the run pins itself to one
NPROC = len(os.sched_getaffinity(0))


def reference_piece() -> int:
    """A fixed slice of plain-Python work with a small working set."""
    table = {}
    acc = 0
    for i in range(2100):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + 1
        acc += len(str(key))
    return acc


def spawn(job: Optional[dict]) -> dict:
    """Run one child to completion or to the wall limit, sampling the
    processor's speed while it runs."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, repr(spawned), ROOT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    )
    job_input: Optional[bytes] = json.dumps(job).encode()
    pieces: List[float] = []
    while True:
        try:
            out, err = proc.communicate(job_input, timeout=SAMPLE_EVERY_S)
            break
        except subprocess.TimeoutExpired:
            job_input = None  # sent with the first call
        if time.monotonic() - spawned > WALL_LIMIT_S:
            proc.kill()
            proc.communicate()
            return {"timed_out": True, "loop_s": WALL_LIMIT_S, "script_s": WALL_LIMIT_S, "scale": 1.0}
        cpu = time.process_time()
        reference_piece()
        pieces.append(time.process_time() - cpu)
    loop_s = time.monotonic() - spawned
    # a child too short for a sample keeps its raw times
    scale = REFERENCE_PIECE_S / statistics.fmean(pieces) if pieces else 1.0
    try:
        result = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        # a child that died without a result is timed like one stopped at the limit
        tail = err.decode()[-2000:] or f"exit {proc.returncode}"
        return {"child_error": tail, "loop_s": WALL_LIMIT_S, "script_s": WALL_LIMIT_S, "scale": 1.0}
    result["loop_s"] = loop_s
    result["scale"] = scale
    result["pieces"] = len(pieces)
    if err and "problems" in result:
        result["stderr"] = err.decode()[-2000:]
    return result


def failures(result: dict, digest: Optional[str]) -> List[str]:
    """Why one script execution counts as failed; empty when it passed."""
    if result.get("timed_out"):
        return [f"stopped at the {WALL_LIMIT_S:g} s wall limit"]
    if "child_error" in result:
        return [f"child failed: {result['child_error']}"]
    problems = list(result["problems"])
    if digest is not None and result["sha256"] != digest:
        problems.append("output differs from an earlier run of the same script")
    return problems


def source_digest() -> str:
    """sha256 over the package's files, so records name the code they timed."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(PACKAGE):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, PACKAGE).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run: the closed loop over one workload's scripts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.scripts = workloads.build(workload, seed)
        self.kernels = set()
        # per script: untraced and traced executions, and the output digest
        self.plain: List[List[dict]] = [[] for _ in self.scripts]
        self.traced: List[List[dict]] = [[] for _ in self.scripts]
        self.digest: List[Optional[str]] = [None] * len(self.scripts)
        # every child that was timed, in the order it ran
        self.children: List[dict] = []
        self.spans: Dict[str, list] = {}
        self.attempted = 0
        self.failed: List[dict] = []

    def execute(self, index: int, path: str, traced: bool) -> None:
        script = self.scripts[index]
        keep_spans = traced and script["label"] not in self.spans
        result = spawn({
            "script": path,
            "expect": script["expect"],
            "trace": traced,
            "keep_spans": keep_spans,
        })
        self.children.append(result)
        spans = result.pop("spans", None)
        if keep_spans and spans is not None:
            self.spans[script["label"]] = spans
        self.attempted += 1
        problems = failures(result, self.digest[index])
        if "setup_s" in result:
            self.kernels.add(result["kernel"])
        if problems:
            self.failed.append({"script": script["label"], "traced": traced, "problems": problems})
        elif self.digest[index] is None:
            self.digest[index] = result["sha256"]
        result["ok"] = not problems
        (self.traced if traced else self.plain)[index].append(result)

    def loop(self, workdir: str) -> float:
        paths = []
        for i, script in enumerate(self.scripts):
            paths.append(os.path.join(workdir, f"{i:02d}-{script['label']}.mi"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(script["text"])
        spawn(None)  # compiles bytecode on a fresh checkout; not timed
        for _ in range(SETUP_PROBES):
            self.children.append(spawn(None))
        start = time.monotonic()
        passes = 0
        while True:
            for i, path in enumerate(paths):
                elapsed = time.monotonic() - start
                if elapsed > HARD_STOP_S or (passes and elapsed >= self.seconds):
                    self.fail_unrun()
                    return elapsed
                if self.trace:
                    # alternate which side runs first, so neither gets the warmer machine
                    for traced in ((False, True) if passes % 2 == 0 else (True, False)):
                        self.execute(i, path, traced)
                else:
                    self.execute(i, path, False)
            passes += 1

    def fail_unrun(self) -> None:
        sides = ((self.plain, False), (self.traced, True)) if self.trace else ((self.plain, False),)
        for runs, traced in sides:
            for script, rs in zip(self.scripts, runs):
                if not rs:
                    self.attempted += 1
                    self.failed.append({
                        "script": script["label"],
                        "traced": traced,
                        "problems": [f"not run within {HARD_STOP_S:g} s"],
                    })

    # -- metrics ------------------------------------------------------------

    def per_script_median(self, runs: List[List[dict]], key: str, raw: bool = False) -> List[float]:
        """Median of `key` per script at the reference speed, or as measured
        with `raw`; a script without one counts at the wall limit."""
        medians = []
        for rs in runs:
            values = [r[key] * (1.0 if raw else r["scale"]) for r in rs if key in r]
            medians.append(statistics.median(values) if values else WALL_LIMIT_S)
        return medians

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        script_s = self.per_script_median(self.plain, "script_s", raw)
        peak = [r["peak_rss_kib"] for rs in self.plain for r in rs if "peak_rss_kib" in r]
        setup = [c["setup_s"] * (1.0 if raw else c["scale"]) for c in self.children if "setup_s" in c]
        return {
            "script_s_geomean": math.exp(statistics.fmean(math.log(t) for t in script_s)),
            "scripts_per_s": len(self.scripts) / sum(self.per_script_median(self.plain, "loop_s", raw)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(peak) / 1024 if peak else 0.0,
        }

    def per_layer(self, names: List[str]) -> Dict[str, float]:
        """Layer metrics summed over one pass, each script at its median."""
        layered = [[r for r in rs if "layers" in r] for rs in self.traced]
        measured = next((list(rs[0]["layers"]) for rs in layered if rs), [])
        out = {
            name: sum(
                statistics.median(
                    r["layers"][name] * (r["scale"] if name.endswith("_s") else 1.0) for r in rs
                )
                for rs in layered
                if rs
            )
            for name in measured
        }
        # the share is taken over the summed counts, not summed itself
        trivial = out.pop("colimit.trivial", 0)
        out["colimit.trivial_frac"] = trivial / out["colimit.calls"] if out.get("colimit.calls") else 0.0
        out["cli.output_bytes"] = sum(self.per_script_median(self.plain, "output_bytes"))
        traced = sum(self.per_script_median(self.traced, "script_s"))
        out["trace.script_s"] = traced
        out["trace.overhead"] = traced / sum(self.per_script_median(self.plain, "script_s"))
        # a metric no traced execution produced reads 0; those runs failed
        return {name: out.get(name, 0.0) for name in names}

    def record(self, elapsed: float, metrics: Dict[str, float]) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "elapsed_s": elapsed,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "kernel": sorted(self.kernels),
            "nproc": NPROC,
            "wall_limit_s": WALL_LIMIT_S,
            "reference_piece_s": REFERENCE_PIECE_S,
            "sample_every_s": SAMPLE_EVERY_S,
            "metrics": metrics,
            "raw_end_to_end": self.end_to_end(raw=True),
            "attempted": self.attempted,
            "failed": self.failed,
            "setup_s": [
                {k: c[k] for k in ("setup_s", "scale", "pieces") if k in c} for c in self.children
            ],
            "scripts": [
                {
                    "label": s["label"],
                    "text": s["text"],
                    "sha256": self.digest[i],
                    "plain": self.plain[i],
                    "traced": self.traced[i],
                }
                for i, s in enumerate(self.scripts)
            ],
        }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        sys.stderr.write(f"error: no muiter sources under {PACKAGE}\n")
        return 2

    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    # every child inherits this, so reference work and scripts share a processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        elapsed = run.loop(workdir)
    if not any("setup_s" in c for c in run.children) or not any(run.plain):
        sys.stderr.write("error: no child process completed\n")
        for f in run.failed[:5]:
            sys.stderr.write(f"  {f}\n")
        return 2
    if run.trace:
        metrics = run.per_layer(list(units))
    else:
        measured = run.end_to_end()
        metrics = {name: measured[name] for name in units}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, name + ".json"), "w") as handle:
        json.dump(run.record(elapsed, metrics), handle, indent=1)
    if run.spans:
        with open(os.path.join(OUT, name + ".spans.json"), "w") as handle:
            json.dump(run.spans, handle)

    for f in run.failed:
        print(f"FAILED {f['script']}{' (traced)' if f['traced'] else ''}: {'; '.join(f['problems'])}")
    traced = [r for rs in run.traced for r in rs]
    missing = sorted({p for r in traced for p in r.get("missing_trace_points", ())})
    counter_errors = sum(r.get("counter_errors", 0) for r in traced)
    if missing or counter_errors:
        print(f"WARNING trace points missing: {missing}; counter errors: {counter_errors}")
    print(
        f"workload={args.workload} seed={args.seed} commit={git_commit()} "
        f"python={platform.python_version()} kernel={','.join(sorted(run.kernels))} "
        f"nproc={NPROC} scripts={len(run.scripts)} "
        f"attempted={run.attempted} failed_frac={len(run.failed) / run.attempted:.4f}"
    )
    for key, value in metrics.items():
        print(f"  {key:24s} {value:.6g} {units[key]}")
    if not run.trace:
        raw = run.end_to_end(raw=True)
        print("  as measured, not scaled: " + ", ".join(
            f"{key} {raw[key]:.6g} {units[key]}" for key in units
        ))
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
