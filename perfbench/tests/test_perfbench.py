"""Tests for the benchmark's own code: oracles, workloads, child and spans.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

LPARITY = "F = 1 + X*X\nalg lparity : F 2 = 1 0 1 1 0\ncata F lparity stage 3 size plump\n"
LPARITY_EXPECT = {"exit": 0, "command": "cata", "sizes": [0, 1, 2, 5], "fold_counts": [2, 3]}


def run_child(tmp_path, text, expect, trace):
    path = tmp_path / "script.mi"
    path.write_text(text)
    job = {"script": str(path), "expect": expect, "trace": trace, "keep_spans": True}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), repr(time.monotonic()), ROOT],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_size_recurrences_match_hand_values():
    assert oracles.chain_sizes(oracles.tree_step, 7) == [0, 1, 2, 5, 26, 677, 458330]
    assert oracles.chain_sizes(oracles.sym_step, 5) == [0, 6, 27, 384, 73926]
    assert oracles.chain_sizes(oracles.succ_step, 4) == [0, 1, 2, 3]


def test_chains_stop_before_the_carrier_cap():
    # 1 + 197 * (197 * 198 / 2) = 3,842,092 is over the cap
    assert oracles.chain_sizes(oracles.pair_sym_step, 6) == [0, 1, 2, 7, 197]
    # the dual chain starts at a point; F(458330) is over the cap
    assert oracles.chain_sizes(oracles.tree_step, 7, start=1) == [1, 2, 5, 26, 677, 458330]


def test_leaf_parity_fold_counts_worked_by_hand():
    # lparity sends a tree to the parity of its leaf count.  Stage 3 holds
    # leaf (1 leaf) and the four pairs over {leaf, node(leaf, leaf)}, with
    # 2, 3, 3 and 4 leaves: two even trees and three odd ones.
    assert oracles.fold_counts([1, 0, 1, 1, 0], 2, 3) == [2, 3]
    # a constant algebra sends all 458,330 elements of stage 6 to one value
    assert oracles.fold_counts([1] * 5, 2, 6) == [0, 458330]


def test_seed_changes_names_and_tables_but_not_the_work():
    for name in workloads.WORKLOADS:
        one, two = workloads.build(name, 1), workloads.build(name, 2)
        assert workloads.build(name, 1) == one
        assert one != two
        by_label = {s["label"]: s for s in two}
        assert sorted(by_label) == sorted(s["label"] for s in one)
        for s in one:
            other = by_label[s["label"]]["expect"]
            for key in ("exit", "command", "error", "sizes", "size_prefix"):
                assert s["expect"].get(key) == other.get(key)


def test_muiter_output_passes_its_oracle_traced_and_untraced(tmp_path):
    plain = run_child(tmp_path, LPARITY, LPARITY_EXPECT, trace=False)
    traced = run_child(tmp_path, LPARITY, LPARITY_EXPECT, trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["sha256"] == traced["sha256"]
    assert plain["output_bytes"] == traced["output_bytes"] > 0


def test_oracle_reports_wrong_sizes_counts_and_exit(tmp_path):
    wrong = {"exit": 2, "command": "cata", "sizes": [0, 1, 2, 6], "fold_counts": [3, 2]}
    result = run_child(tmp_path, LPARITY, wrong, trace=False)
    assert len(result["problems"]) == 3


def test_traced_script_spans_every_layer_within_its_wall_time(tmp_path):
    result = run_child(tmp_path, LPARITY, LPARITY_EXPECT, trace=True)
    assert result["missing_trace_points"] == []
    assert result["counter_errors"] == 0
    layers = {name.split(".", 1)[0] for name, _, _, _ in result["spans"]}
    assert {"size", "functors", "colimit", "finset", "iteration", "cli"} <= layers
    assert sum(spans.self_times(result["spans"])) <= result["script_s"]
    assert result["layers"]["functors.mor_calls"] > 0
    assert result["layers"]["iteration.stages"] > 0


def test_parent_samples_the_processor_speed_while_a_child_lives():
    result = run.spawn(None)
    assert result["setup_s"] > 0
    # set-up takes over 0.1 s, so several reference pieces were timed
    assert result["pieces"] >= 2
    assert 0.1 < result["scale"] < 10


def test_run_refuses_a_checkout_without_muiter(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tower", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
