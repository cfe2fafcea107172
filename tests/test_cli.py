import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from importlib.resources import files
from math import comb

import jsonschema
import pytest

import muiter
from muiter import cli
from muiter.cli import MAX_SAMPLES, _write_json, main, render_json, render_text
from muiter.dsl import MAX_NESTING, AlgDecl, Command, FuncDecl, SigDecl, parse_script
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import (
    Compose,
    Constant,
    Container,
    Identity,
    MuParam,
    Power,
    Product,
    Projection,
    Sum,
    SymContainer,
)
from muiter.iteration import AlgebraSpec, Profile, catamorphism, inflationary_iterate
from muiter.signature import Signature, WTree
from muiter.size import (
    MAX_DRAWN,
    NatBackend,
    PlumpBackend,
    height,
    nat_backend,
    successor_tower,
)
from launch import child_env, muiter_child, run_limited

SCHEMA = json.loads(files("muiter").joinpath("schema.json").read_text())

GOLDEN = """\
sig Tree = leaf:0 | node:2
F = 1 + X*X
G = 3
Pairs = 1 + sym<swap2> X
Lists = mu Y. 1 + X*Y
Wide = (1 + X)*X + Tree
Sq = compose(X^2, 1 + X)
alg lparity : F 2 = 1 0 1 1 0
iterate F size nat depth 4
mu G budget 4
free G 2 budget 5
cata F lparity stage 3 budget 6
nu G
check size plump samples 8 depth 2 seed 1
"""


def run_cli(tmp_path, capsys, text, *flags):
    path = tmp_path / "script.mi"
    path.write_text(text)
    code = main([str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(tmp_path, capsys, text, *flags):
    code, out, err = run_cli(tmp_path, capsys, text, "--format", "json", *flags)
    payload = json.loads(out) if out else None
    if payload is not None:
        jsonschema.validate(payload, SCHEMA)
    return code, payload, err


# -- parse results ----------------------------------------------------------------


def test_golden_declarations_parse_to_their_functor_expressions():
    one = Constant(FiniteSet(1))
    tree = Signature.of(0, 2, labels=["leaf", "node"])
    f = Sum((one, Product((Identity(), Identity()))))
    decls = parse_script(GOLDEN)[:8]
    assert decls == (
        SigDecl("Tree", tree, line=1),
        FuncDecl("F", f, line=2),
        FuncDecl("G", Constant(FiniteSet(3)), line=3),
        FuncDecl("Pairs", Sum((one, SymContainer(2))), line=4),
        FuncDecl(
            "Lists", MuParam(Sum((one, Product((Identity(), Projection(1)))))), line=5
        ),
        FuncDecl(
            "Wide",
            Sum((Product((Sum((one, Identity())), Identity())), Container(tree))),
            line=6,
        ),
        FuncDecl(
            "Sq",
            Compose(Power(Identity(), 2), (Sum((one, Identity())),)),
            line=7,
        ),
        AlgDecl("lparity", "F", 2, (1, 0, 1, 1, 0), line=8),
    )
    assert decls[0].sig.op_label(1) == "node"


def test_golden_commands_keep_their_options_in_order():
    commands = parse_script(GOLDEN)[8:]
    assert commands[0] == Command(
        "iterate", "F", options=(("size", "nat"), ("depth", 4)), line=9
    )
    assert commands[3] == Command(
        "cata", "F", "lparity", options=(("stage", 3), ("budget", 6)), line=12
    )
    assert [c.kind for c in commands] == [
        "iterate", "mu", "free", "cata", "nu", "check"
    ]


def unlined(text):
    """The parsed statements, each rebuilt through its own class at line 0."""
    return [
        type(s)(**{**{n: getattr(s, n) for n in type(s).__slots__}, "line": 0})
        for s in parse_script(text)
    ]


def test_messy_script_parses_like_its_tidy_form():
    messy = "F  =  1+X * X   # trailing comment\n\n\nmu   F budget   4\n"
    tidy = "F = 1 + X*X\nmu F budget 4\n"
    assert [s.line for s in parse_script(messy)] == [1, 4]
    assert unlined(messy) == unlined(tidy)


def test_references_inline_and_sym_binds_tighter_than_a_power():
    _, p, q = parse_script("I = X\nP = sym<swap3> I\nQ = sym<swap2> (1 + X)^2\n")
    assert p.expr == SymContainer(3)
    pairs = Compose(SymContainer(2), (Sum((Constant(FiniteSet(1)), Identity())),))
    assert q.expr == Power(pairs, 2)


def test_an_unknown_group_is_kept_on_its_declaration():
    text = "P = sym<bad1> sym<bad2> X\nQ = sym<swap2> X\n"
    p, q = parse_script(text)
    assert (p.expr, p.error) == (None, "unknown symmetry group 'bad1'")
    assert (q.expr, q.error) == (SymContainer(2), None)


def test_parser_reports_position():
    with pytest.raises(muiter.DslSyntaxError) as info:
        parse_script("F = 1 +\n")
    assert str(info.value).startswith("1:")


# -- full run over every command kind -------------------------------------------


ALL_KINDS = """\
F = 1 + X*X
G = 3
alg lparity : F 2 = 1 0 1 1 0
alg pick : G 3 = 2 0 1
iterate F depth 4
mu G
free G 2
cata F lparity stage 3
cata G pick
nu G
check samples 8 depth 2
"""


def test_every_command_kind_reports_and_validates(tmp_path, capsys):
    code, payload, err = run_json(tmp_path, capsys, ALL_KINDS)
    assert code == 0
    assert err == ""
    assert payload["version"] == muiter.__version__
    kinds = [r["command"] for r in payload["reports"]]
    assert kinds == ["iterate", "mu", "free", "cata", "cata", "nu", "check"]

    iterate, mu, free, cata_f, cata_g, nu, check = payload["reports"]
    assert [s["size"] for s in iterate["stages"]] == [0, 1, 2, 5]
    assert mu["mu"] == {"size": 3}
    assert mu["stationaryAt"] == 2
    assert free["mu"] == {"size": 5}
    assert sorted(free["unit"]["table"] + free["iota"]["table"]) == list(range(5))
    assert cata_f["stage"] == 3
    assert cata_g["stage"] == 2
    assert cata_g["fold"]["table"] == [2, 0, 1]
    assert nu["nu"] == {"size": 3}
    assert all(c["ok"] for c in check["checks"])
    names = [c["name"] for c in check["checks"]]
    assert "order-laws" in names and "cocone-laws" in names


def test_cli_fold_matches_library_fold(tmp_path, capsys):
    code, payload, _ = run_json(tmp_path, capsys, ALL_KINDS)
    assert code == 0
    report = payload["reports"][3]
    poly = Sum((Constant(FiniteSet(1)), Product((Identity(), Identity()))))
    backend = nat_backend()
    state = inflationary_iterate(poly, backend, successor_tower(backend, 4))
    alg = AlgebraSpec(
        FiniteSet(2), FiniteFn(FiniteSet(5), FiniteSet(2), (1, 0, 1, 1, 0))
    )
    assert report["fold"]["table"] == list(catamorphism(state, alg, 3).table)


def test_text_rendering_shape(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "G = 3\nmu G\nnu G\n")
    assert code == 0
    assert err == ""
    assert "mu G  (size=nat, budget=8)" in out
    assert "  D[0] size=0" in out
    assert "  stationary at stage 2" in out
    assert "  mu size=3" in out
    assert "  nu size=3" in out
    assert "  iota: [" in out


def test_declaration_only_script_prints_nothing(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "G = 3\n")
    assert code == 0
    assert out == ""
    code, payload, _ = run_json(tmp_path, capsys, "G = 3\n")
    assert payload["reports"] == []


def test_a_script_file_that_is_not_utf8_is_a_syntax_error(tmp_path):
    # the byte reaches the tokenizer as a lone surrogate, from the file and
    # from stdin, also where Python would decode stdin strictly
    path = tmp_path / "bad.mi"
    path.write_bytes(b"F = 1 + X\xff\n")
    stdin = {"input": path.read_bytes()}
    for source, env in [({}, {}), (stdin, {}), (stdin, {"PYTHONIOENCODING": "utf-8"})]:
        args = muiter_child(path if not source else "-", **env)
        done = subprocess.run(**args, **source, capture_output=True, timeout=30)
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr == b"error: 1:10: unexpected character '\\udcff'\n"


def test_a_lone_carriage_return_ends_a_line_from_a_file_and_from_stdin(tmp_path):
    # universal newlines for both sources: \r\n and a lone \r end a line
    # as \n does, so both runs give the report of the \n script
    path = tmp_path / "cr.mi"
    path.write_bytes(b"G = 3\r\nF = 1 + X\rmu G\r")
    (tmp_path / "lf.mi").write_bytes(b"G = 3\nF = 1 + X\nmu G\n")
    runs = [
        subprocess.run(**muiter_child(script), **source, capture_output=True, timeout=30)
        for script, source in [
            (path, {}),
            ("-", {"input": path.read_bytes()}),
            (tmp_path / "lf.mi", {}),
        ]
    ]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, b"")] * 3
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert json.loads(runs[0].stdout)["reports"][0]["mu"]["size"] == 3


def test_stdin_is_the_default_source(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"G = 3\nmu G\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert code == 0
    assert payload["reports"][0]["command"] == "mu"


def test_json_output_is_deterministic(tmp_path, capsys):
    script = "F = 1 + X*X\niterate F size plump depth 3\ncheck samples 12 depth 2\n"
    first = run_cli(tmp_path, capsys, script, "--format", "json")
    second = run_cli(tmp_path, capsys, script, "--format", "json")
    assert first == second


# -- size disciplines and option precedence -------------------------------------


def test_flag_sets_default_inline_overrides(tmp_path, capsys):
    script = "G = 3\niterate G depth 2\niterate G depth 2 size nat\n"
    code, payload, _ = run_json(tmp_path, capsys, script, "--size", "plump")
    assert code == 0
    by_flag, by_option = payload["reports"]
    assert [s["index"] for s in by_flag["stages"]] == ["bot", "succ(bot)"]
    assert [s["index"] for s in by_option["stages"]] == ["0", "1"]

    # --depth sets the depth of iterate, and of check, unless inline depth does
    script = "F = 1 + X*X\niterate F\niterate F depth 3\ncheck samples 4\n"
    flags = ("--depth", "2", "--budget", "5")
    code, payload, _ = run_json(tmp_path, capsys, script, *flags)
    assert code == 0
    by_flag, by_option, check = payload["reports"]
    assert [s["size"] for s in by_flag["stages"]] == [0, 1]
    assert [s["size"] for s in by_option["stages"]] == [0, 1, 2]
    assert check["depth"] == 2


def test_budget_flag_applies_when_command_is_silent(tmp_path, capsys):
    script = "F = 1 + X*X\niterate F depth 5\n"
    code, payload, _ = run_json(tmp_path, capsys, script, "--budget", "3")
    assert code == 2
    report = payload["reports"][0]
    assert report["error"]["type"] == "budget-exceeded"
    assert [s["size"] for s in report["stages"]] == [0, 1, 2]


def test_inline_budget_beats_the_flag(tmp_path, capsys):
    script = "F = 1 + X*X\niterate F depth 5 budget 5\n"
    code, payload, _ = run_json(tmp_path, capsys, script, "--budget", "3")
    assert code == 0
    assert [s["size"] for s in payload["reports"][0]["stages"]] == [0, 1, 2, 5, 26]


def test_named_signature_sizes_run(tmp_path, capsys):
    script = "sig B = tip:0 | fork:2\nG = 3\nmu G size plump:B\n"
    code, payload, _ = run_json(tmp_path, capsys, script)
    assert code == 0
    assert payload["reports"][0]["mu"] == {"size": 3}


def test_check_under_a_declared_signature_draws_families_of_each_arity(
    tmp_path, capsys
):
    script = "sig T = a:0 | b:2\ncheck size plump:T samples 20\n"
    code, payload, err = run_json(tmp_path, capsys, script)
    assert (code, err) == (0, "")
    checks = payload["reports"][0]["checks"]
    assert [c["name"] for c in checks] == [
        "order-laws", "join-bounds", "filtered-bounds", "predecessor-basis",
        "cocone-laws",
    ]
    assert all(c["ok"] for c in checks), checks


def test_a_signature_of_nullary_operations_is_checked_as_its_constant(
    tmp_path, capsys
):
    # sig S = a:0 | b:0 is the sum of two zeroth powers, the constant 2,
    # which takes no arguments: check draws the same samples as for F = 2
    check = "check samples 40 seed 3\n"
    by_sig = run_cli(tmp_path, capsys, "sig S = a:0 | b:0\nF = S\n" + check)
    by_constant = run_cli(tmp_path, capsys, "F = 2\n" + check)
    assert by_sig == by_constant
    assert by_sig[0] == 0 and "chain with carriers [0, 2, 3]" in by_sig[1]


# -- failure exits ----------------------------------------------------------------


def test_budget_stop_aborts_remaining_commands(tmp_path, capsys):
    script = "F = 1 + X*X\nG = 3\nmu F budget 6\nmu G\n"
    code, payload, _ = run_json(tmp_path, capsys, script)
    assert code == 2
    assert len(payload["reports"]) == 1
    report = payload["reports"][0]
    assert [s["size"] for s in report["stages"]] == [0, 1, 2, 5, 26, 677]
    assert report["error"]["type"] == "budget-exceeded"


def test_an_unknown_group_is_a_script_error_at_its_declaration(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "P = sym<swap9> X\niterate P depth 2\n")
    assert (code, out) == (1, "")
    assert err == "error: unknown symmetry group 'swap9'\n"


@pytest.mark.parametrize(
    "script, where, char",
    [
        ("F = \u00b2\n", "1:5", "\u00b2"),
        ("F = 1 + X\nmu F budget \u00b2\n", "2:13", "\u00b2"),
        ("F = 1 + X^\u00b3\n", "1:11", "\u00b3"),
        ("sig S = a:\u00b2\n", "1:11", "\u00b2"),
    ],
    ids=["constant", "option", "power", "arity"],
)
def test_a_superscript_digit_is_a_syntax_error(tmp_path, capsys, script, where, char):
    # str.isdigit accepts a superscript, which int() refuses
    code, out, err = run_cli(tmp_path, capsys, script)
    assert (code, out) == (1, "")
    assert err == f"error: {where}: unexpected character {char!r}\n"


def test_a_decimal_digit_of_any_script_is_a_numeral(tmp_path, capsys):
    # an Arabic-Indic one is a decimal digit, and a superscript in a name
    # is a letter of the name
    script = "F\u00b2 = 1 + X^\u0661\niterate F\u00b2 depth \u0663\n"
    code, payload, _ = run_json(tmp_path, capsys, script)
    assert code == 0
    assert [s["size"] for s in payload["reports"][0]["stages"]] == [0, 1, 2]


def test_an_unknown_group_after_a_budget_stop_keeps_the_stop(tmp_path, capsys):
    head = "F = 1 + X\nmu F budget 2\n"
    text = head + "P = sym<swap9> X\niterate P depth 2\n"
    assert run_cli(tmp_path, capsys, text) == run_cli(tmp_path, capsys, head)
    code, out, err = run_cli(tmp_path, capsys, text)
    assert (code, err) == (2, "")
    assert out.startswith("mu F  (size=nat, budget=2)\n  error[budget-exceeded]: ")


def test_a_stopped_report_keeps_the_header_of_a_finished_run(tmp_path, capsys):
    # the carrier cap stops iterate; the header still names size and budget
    text = "P = 1 + sym<swap2> X\niterate P depth 8\n"
    code, out, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert err == ""
    assert out.startswith("iterate P  (size=nat, budget=8)\n  error[budget-exceeded]: ")


def test_a_stopped_dual_chain_reports_nat_under_a_plump_default(tmp_path, capsys):
    # nu runs on nat whatever the default size, finished or stopped
    code, out, _ = run_cli(tmp_path, capsys, "G = 3\nnu G\n", "--size", "plump")
    assert code == 0
    assert out.startswith("nu G  (size=nat, budget=8)\n")
    text = "F = 1 + X*X\nnu F budget 5\n"
    code, out, err = run_cli(tmp_path, capsys, text, "--size", "plump")
    assert code == 2
    assert err == ""
    assert out.startswith("nu F  (size=nat, budget=5)\n  error[budget-exceeded]: ")


@pytest.mark.parametrize(
    "command, header, keys",
    [
        (
            "cata F A stage 9 budget 4",
            "cata F A  (size=nat, budget=4, stage=9)",
            {"algebra": "A", "stage": 9},
        ),
        ("cata F A budget 4", "cata F A  (size=nat, budget=4)", {"algebra": "A"}),
        ("free F 2 budget 4", "free F 2  (size=nat, budget=4)", {"generators": 2}),
    ],
    ids=["cata-stage", "cata", "free"],
)
def test_a_stopped_fold_or_free_run_keeps_its_header(
    tmp_path, capsys, command, header, keys
):
    # a finished cata without an inline stage reports its stationary index,
    # which a stop never reaches, so only an inline stage is kept
    text = f"F = 1 + X*X\nalg A : F 2 = 0 1 0 1 0\n{command}\n"
    code, out, err = run_cli(tmp_path, capsys, text)
    assert (code, err) == (2, "")
    assert out.startswith(header + "\n  error[budget-exceeded]: stage budget 4 exhausted\n")
    code, payload, _ = run_json(tmp_path, capsys, text)
    report = payload["reports"][0]
    assert {k: report.get(k) for k in ("algebra", "generators", "stage")} == {
        "algebra": None, "generators": None, "stage": None, **keys
    }


def test_deep_plump_chain_stops_at_the_budget_in_bounded_time(tmp_path):
    # the successor tower shares every level, so 200 stages stay cheap
    path = tmp_path / "chain.mi"
    path.write_text("F = 1 + X\nmu F size plump budget 200\n")
    done = subprocess.run(
        **muiter_child(path),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 2
    report = json.loads(done.stdout)["reports"][0]
    assert len(report["stages"]) == 200
    assert report["error"]["type"] == "budget-exceeded"


def test_plump_chain_deeper_than_the_recursion_limit_stops_at_the_budget(tmp_path):
    # stage 999's index is a tower of 999 successors; rendering it for the
    # profile must not recurse once per level
    path = tmp_path / "chain.mi"
    path.write_text("F = 1 + X\nmu F size plump budget 1000\n")
    done = subprocess.run(
        **muiter_child(path),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 2, done.stderr
    report = json.loads(done.stdout)["reports"][0]
    assert report["error"]["type"] == "budget-exceeded"
    assert len(report["stages"]) == 1000
    assert report["stages"][-1]["index"] == "succ(" * 999 + "bot" + ")" * 999


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_long_plump_profile_is_written_in_bounded_memory(tmp_path, fmt):
    # stage k's index is k nested succ( around bot, so the 2,000 stages'
    # report is about 12 MB; it is written in pieces, not built whole
    text = "F = 1 + X\niterate F size plump budget 2000\n"
    code, out, wall, rss = run_limited(tmp_path, text, fmt)
    assert code == 0
    last = "succ(" * 1999 + "bot" + ")" * 1999
    if fmt == "json":
        stages = out["reports"][0]["stages"]
        assert stages[-1] == {"index": last, "size": 1999} and len(stages) == 2000
    else:
        assert out.endswith(f"  D[{last}] size=1999\n") and out.count("\n") == 2001
    assert wall < 2
    assert rss < 30 * 2**20


def test_a_plump_tower_builds_no_tree_node(tmp_path, capsys, monkeypatch):
    # a stage's index is rendered by arithmetic, in the report as in a row
    backends = []

    def kept(sig):
        backend = PlumpBackend(sig)
        backends.append((backend, len(backend._table)))
        return backend

    monkeypatch.setattr(cli, "kappa_sigma", kept)
    text = "F = 1 + X\nmu F size plump budget 500\n"
    code, out, _ = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert out.endswith("  D[" + "succ(" * 499 + "bot" + ")" * 499 + "] size=499\n")
    code, payload, _ = run_json(tmp_path, capsys, text)
    assert code == 2 and len(payload["reports"][0]["stages"]) == 500
    assert [(len(backend._table), built) for backend, built in backends] == [(1, 1)] * 2


def sym_chain(const: int, k: int, n: int) -> list:
    """Stage sizes of const + sym<swapk> X: s -> const + C(s + k - 1, k)."""
    sizes = [0]
    for _ in range(n - 1):
        sizes.append(const + comb(sizes[-1] + k - 1, k))
    return sizes


@pytest.mark.parametrize(
    "const, k, depth, stages",
    [(1, 2, 8, 7), (2, 3, 6, 5)],
    ids=["swap2-depth-8", "swap3-depth-6"],
)
def test_sym_chains_stop_at_the_carrier_cap_in_bounded_time_and_memory(
    tmp_path, const, k, depth, stages
):
    # the next carrier, C(s + k - 1, k) + const, is counted, not built
    text = f"P = {const} + sym<swap{k}> X\niterate P depth {depth}\n"
    code, payload, wall, rss = run_limited(tmp_path, text)
    assert code == 2
    report = payload["reports"][0]
    sizes = sym_chain(const, k, stages + 1)
    assert [s["size"] for s in report["stages"]] == sizes[:-1]
    assert report["error"] == {
        "type": "budget-exceeded",
        "message": f"carrier of size {sizes[-1]} exceeds the cap 500000",
    }
    assert wall < 5
    assert rss < 100_000_000


@pytest.mark.parametrize(
    "const, code, report",
    [
        (500_000, 0, "  D[0] size=0\n  D[1] size=500000\n  D[2] size=500000\n"),
        (
            500_001,
            2,
            "  error[budget-exceeded]: carrier of size 500001 exceeds the cap 500000\n"
            "  D[0] size=0\n",
        ),
    ],
    ids=["at-the-cap", "past-the-cap"],
)
def test_a_stage_of_exactly_the_cap_runs_and_one_more_element_stops(
    tmp_path, capsys, const, code, report
):
    text = f"F = {const}\niterate F depth 3\n"
    header = "iterate F  (size=nat, budget=8)\n"
    assert run_cli(tmp_path, capsys, text) == (code, header + report, "")


def test_a_stopped_dual_chain_stops_before_building_a_map(tmp_path):
    # the sizes 1, 2, 5, 26, 677, 458330 hit the cap; no comparison is built
    code, payload, wall, rss = run_limited(tmp_path, "F = 1 + X*X\nnu F budget 7\n")
    assert code == 2
    report = payload["reports"][0]
    assert [s["size"] for s in report["stages"]] == [1, 2, 5, 26, 677, 458330]
    assert report["error"]["message"] == (
        "carrier of size 210066388901 exceeds the cap 500000"
    )
    assert wall < 2
    assert rss < 30_000_000


# ROADMAP item 2's examples: the successor tower is sized by arithmetic, and
# a fold on it is a loop, so none of them builds a colimit per stage
@pytest.mark.parametrize(
    "text, code, stages, wall_s, rss_mb",
    [
        ("F = 1 + X\nmu F budget 100000\n", 2, 100000, 5, 150),
        ("F = 1 + X\nfree F 1 budget 3000\n", 2, 3000, 2, 60),
        (
            "F = 1 + X\nalg A : F 1 = 0 0\ncata F A stage 200 budget 1000\n",
            0,
            201,
            2,
            60,
        ),
    ],
    ids=["mu-budget-100000", "free-budget-3000", "cata-stage-200"],
)
def test_long_successor_chains_run_in_bounded_time_and_memory(
    tmp_path, text, code, stages, wall_s, rss_mb
):
    got, payload, wall, rss = run_limited(tmp_path, text)
    assert got == code
    report = payload["reports"][0]
    assert len(report["stages"]) == stages
    if code == 2:
        assert report["error"]["type"] == "budget-exceeded"
    else:
        assert report["fold"]["table"] == [0] * 200
    assert wall < wall_s
    assert rss < rss_mb * 2**20


@pytest.mark.parametrize(
    "text, bits",
    [
        ("F = 1 + X^20000\niterate F depth 4\n", 20000),
        ("sig S = a:0 | b:100000000\nT = S\niterate T depth 4\n", 100000000),
        ("F = 1 + X^100000000\niterate F depth 4\n", 100000000),
    ],
    ids=["power", "wide-op", "huge-power"],
)
def test_a_cap_stop_on_a_carrier_of_unbounded_length_is_a_report(tmp_path, text, bits):
    # the carrier, 1 + 2**bits, has too many digits for str()
    code, payload, wall, rss = run_limited(tmp_path, text)
    assert code == 2
    report = payload["reports"][0]
    assert report["error"] == {
        "type": "budget-exceeded",
        "message": f"carrier of size at least 2**{bits} exceeds the cap 500000",
    }
    assert [s["size"] for s in report["stages"]] == [0, 1, 2]
    assert wall < 5
    assert rss < 100 * 2**20


# A^n is one power node, sized |A| ** n, so a stop costs nothing linear in n
@pytest.mark.parametrize(
    "text, code",
    [
        ("F = 1 + X^100000000\nnu F budget 2\n", 2),
        ("sig S = a:0 | b:2\nF = 1 + S^1000000\nmu F\n", 2),
        ("F = X^0\ncheck samples 40\n", 0),
    ],
    ids=["nu-huge-power", "mu-container-power", "check-zeroth-power"],
)
def test_powers_run_in_bounded_time_and_memory(tmp_path, text, code):
    got, payload, wall, rss = run_limited(tmp_path, text)
    assert got == code
    report = payload["reports"][0]
    if code == 2:
        assert report["error"]["type"] == "budget-exceeded"
    else:
        assert all(c["ok"] for c in report["checks"])
    assert wall < 5
    assert rss < 100 * 2**20


def test_bare_plump_reads_nothing_of_a_power_of_a_container(tmp_path):
    # bare plump orders trees over no operations, whatever the functor
    text = "sig S = a:0 | b:2\nF = 1 + S^1000000\nmu F size plump\n"
    code, payload, wall, rss = run_limited(tmp_path, text)
    assert code == 2
    report = payload["reports"][0]
    assert report["error"] == {
        "type": "budget-exceeded",
        "message": "carrier of size at least 2**2321928 exceeds the cap 500000",
    }
    assert report["stages"] == [
        {"index": "bot", "size": 0},
        {"index": "succ(bot)", "size": 2},
    ]
    assert wall < 1
    assert rss < 64 * 2**20


CONTAINERS = """\
sig Tree = leaf:0 | node:2
T = 1 + Tree*Tree
K = 1 + compose(Tree, 2)
alg A : T 2 = 0 1 1 0 0 1 0 1 1 0 0 1 0 1 1 0 0 1 0 1 1 0 0 1 0 1
alg B : K 3 = 0 1 2 0 1 2
iterate T depth 3
mu K
cata T A stage 2
cata K B
"""


def test_the_signature_of_a_plump_order_changes_only_the_size_header(tmp_path, capsys):
    # the tower's indices are bottom and its successors under any signature,
    # so a functor's containers need not reach the order
    runs = {}
    for size in ("plump", "plump:Tree"):
        code, payload, _ = run_json(tmp_path, capsys, CONTAINERS, "--size", size)
        assert code == 0
        assert [r.pop("size") for r in payload["reports"]] == [size] * 4
        runs[size] = payload
    assert runs["plump"] == runs["plump:Tree"]
    iterate, mu, cata_stage, cata = runs["plump"]["reports"]
    assert [s["index"] for s in iterate["stages"]] == [
        "bot", "succ(bot)", "succ(succ(bot))"
    ]
    assert mu["stationaryAt"] == 2 and mu["iota"]["size"] == 6
    assert len(cata_stage["fold"]["table"]) == 26
    assert cata["fold"]["size"] == 3


def test_check_samples_deep_trees_in_bounded_time_and_memory(tmp_path):
    # trees of height up to 900 over bottom and join: a few pass 500 levels,
    # past the recursion limit of a sampler that recurses per level
    text = "check size plump samples 200 depth 900 seed 1\n"
    code, payload, wall, rss = run_limited(tmp_path, text)
    assert code == 0
    assert all(c["ok"] for c in payload["reports"][0]["checks"])
    assert wall < 5
    assert rss < 100 * 2**20


def test_check_stops_at_the_node_cap_in_bounded_time_and_memory(tmp_path):
    # each op of a:0 | b:6 | bot | join is drawn alike, so a node has two
    # children on average and a tree of height 20 about 2**21 nodes
    text = "sig S = a:0 | b:6\ncheck size plump:S samples 50 depth 20\n"
    code, payload, wall, rss = run_limited(tmp_path, text)
    assert code == 2
    (report,) = payload["reports"]
    assert report["error"] == {
        "type": "budget-exceeded",
        "message": f"tree nodes drawn exceed the cap {MAX_DRAWN}",
    }
    assert (report["size"], report["samples"], report["depth"]) == ("plump:S", 50, 20)
    assert "checks" not in report and "stages" not in report
    jsonschema.validate(payload, SCHEMA)
    assert wall < 10
    assert rss < 100 * 2**20


def repeated_checks(n: int) -> str:
    """n plump checks over a:0 | b:6 at different seeds; each one draws
    tens of thousands of distinct trees."""
    return "sig S = a:0 | b:6\n" + "".join(
        f"check size plump:S samples 400 depth 11 seed {k}\n" for k in range(n)
    )


def test_the_trees_of_a_check_are_freed_when_the_command_ends(tmp_path):
    # each command's backend owns its trees, so four checks peak where one does
    peaks = []
    for n in (1, 4):
        code, payload, wall, rss = run_limited(tmp_path, repeated_checks(n))
        assert code == 0 and len(payload["reports"]) == n
        assert wall < 10
        peaks.append(rss)
    assert peaks[1] - peaks[0] < 8 * 2**20


def test_no_tree_outlives_the_script_that_built_it(tmp_path, capsys):
    def trees():
        gc.collect()
        return sum(type(o) is WTree for o in gc.get_objects())

    before = trees()
    code, out, err = run_cli(tmp_path, capsys, repeated_checks(4))
    assert (code, err) == (0, "") and out.count("ok   order-laws") == 4
    assert trees() == before


def test_a_check_stopped_at_the_node_cap_ends_the_script(tmp_path, capsys, monkeypatch):
    # each command's sampler counts from 0; the stop keeps the check's header
    # and drops the commands after it, as a budget stop does
    monkeypatch.setattr("muiter.size.MAX_DRAWN", 300)
    text = "check size plump samples 8 depth 2\ncheck size plump samples 80\ncheck\n"
    code, out, err = run_cli(tmp_path, capsys, text)
    assert (code, err) == (2, "")
    first, second = out.split("check  (")[1:]
    assert "ok   order-laws" in first
    assert second == (
        "size=plump, samples=80, seed=0, depth=3)\n"
        "  error[budget-exceeded]: tree nodes drawn exceed the cap 300\n"
    )


GUARDED = """\
F = 1 + X*X
G = 3
M = mu Y. 1 + X*0*Y
N = 2 * compose(M, X)
alg A : F 2 = 1 0 1 1 0
alg B : G 3 = 2 0 1
alg C : N 2 = 1 0
iterate F depth 5
mu G
free G 2
cata F A stage 4
cata G B
nu G
mu N
cata N C
"""


def test_no_fixpoint_command_reaches_the_colimit_engine(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a fixpoint command reached the colimit engine")

    monkeypatch.setattr("muiter.colimit.subdiagram_colimit", unreachable)
    monkeypatch.setattr("muiter.iteration.IterationState.stage", unreachable)
    code, payload, err = run_json(tmp_path, capsys, GUARDED)
    assert (code, err) == (0, "")
    kinds = [r["command"] for r in payload["reports"]]
    assert kinds == ["iterate", "mu", "free", "cata", "cata", "nu", "mu", "cata"]
    assert payload["reports"][-2]["mu"] == {"size": 2}
    assert payload["reports"][-1]["fold"]["table"] == [1, 0]


SIZED = """\
M = mu Y. X*X + 0*Y
F = 1 + compose(M, X)
G = 3
alg B : G 3 = 2 0 1
iterate F depth 5
cata G B
mu F budget 20
"""


def test_a_size_only_read_of_a_fixpoint_builds_no_chain_map(tmp_path, capsys, monkeypatch):
    # a nested mu's carrier, and the stage a cata without one folds at,
    # come from sizes alone; only an iota needs the chain map and its inverse
    def unreachable(*args, **kwargs):
        raise AssertionError("a size-only read built a chain map")

    monkeypatch.setattr("muiter.iteration._chain_map", unreachable)
    monkeypatch.setattr("muiter.finset.FiniteFn.inverse", unreachable)
    code, payload, err = run_json(tmp_path, capsys, SIZED)
    assert (code, err) == (2, "")
    iterate, cata, mu = payload["reports"]
    assert [s["size"] for s in iterate["stages"]] == [0, 1, 2, 5, 26]
    assert (cata["stage"], cata["fold"]["table"]) == (2, [2, 0, 1])
    assert mu["error"]["type"] == "budget-exceeded"


@pytest.mark.parametrize(
    "script, flags",
    [
        ("F = 1 + X*X\ncheck samples 2 depth 0\n", ()),
        ("F = 1 + X*X\ncheck samples 2\n", ("--depth", "0")),
    ],
    ids=["inline", "flag"],
)
def test_check_at_depth_0_draws_nonempty_codomains_of_one_element(
    tmp_path, capsys, script, flags
):
    code, payload, err = run_json(tmp_path, capsys, script, *flags)
    assert (code, err) == (0, "")
    report = payload["reports"][0]
    assert report["depth"] == 0
    assert all(c["ok"] for c in report["checks"])
    assert "functor-laws[F]" in [c["name"] for c in report["checks"]]


# sha256 of the --format json output, each taken from the commit before the
# change it guards (block-built tables, the C-encoder render_json, range
# tables, closed-form multisets, then folds built as one table and digit
# tables written through bytes); any change here is a change of behaviour.
# The six budget-stopped scripts were re-pinned when a stopped report
# gained the size and budget keys of a finished run.
PINNED_JSON = {
    "cata-nat": (
        "F = 1 + X*X\nalg lparity : F 2 = 1 0 1 1 0\ncata F lparity stage 4\n",
        0,
        "75cc87339a6675ccc1b27bf6c668549dc014b0293abe6724a4d9b329263f7f45",
    ),
    "cata-plump": (
        "F = 1 + X*X\nalg lparity : F 2 = 1 0 1 1 0\n"
        "cata F lparity stage 4 size plump\n",
        0,
        "d2b7f5aab757528adb511b42af0bfbc12d5f503f3fc34ef42bcf1673ba37a2c3",
    ),
    "nu-budget-5": (
        "F = 1 + X*X\nnu F budget 5\n",
        2,
        "f160c1a4b25dd809ff778af02ee647fbb211c9f7e2a52b72919b41347d364938",
    ),
    "iterate-sym": (
        "P = 6 + sym<swap2> X\niterate P depth 4\n",
        0,
        "1a127364029e34d9b3cf91b82933471a406fa6dc2ab302a51dd59d694c57a68c",
    ),
    "nested-mu": (
        "L = mu Y. 1 + X*Y\nG = compose(L, 2)\nmu G\n",
        2,
        "582a7dba4a53448d9aa064610e2f3f165979b354bdf4ebff6aeb81d6a28f5cfc",
    ),
    # the fold workload's table size: 458,330 entries, 5,959,057 bytes
    "cata-stage-6": (
        "F = 1 + X*X\nalg lparity : F 2 = 1 0 1 1 0\ncata F lparity stage 6\n",
        0,
        "7bd05ad7fb47c8e3468bf262496906db25eb68d5c278cade336b209a3904931a",
    ),
    "mu-sym-plump": (
        "G = 2 + sym<swap2> 3\nmu G size plump budget 6\n",
        0,
        "857ee6d3dde9129010b9c31a1d655da84877ad99a796129d31b4a049123df213",
    ),
    "free-named-sig": (
        "sig Pt = a:0 | b:0\nG = Pt + 2*Pt\nfree G 3 budget 6\n",
        0,
        "1d5a262d216f4821344555518a0d960ce7180b43664075bdd42c10da099755ec",
    ),
    "check-plump": (
        "check size plump samples 12 depth 3 seed 7\n",
        0,
        "8d4f8c2db36aac3ed010c568e89948fc3e66cc95dfa465e77fc8f4f07f41365e",
    ),
    # arrow-free stages up to 458,330 elements, and the maps between stages
    "iterate-nat-7": (
        "F = 1 + X*X\niterate F depth 7\n",
        0,
        "b60310535c7b7375f91febcf63e12768fbc07b7d0d87537f3bc7a716fcbac190",
    ),
    "iterate-plump-7": (
        "F = 1 + X*X\niterate F size plump depth 7\n",
        0,
        "d41c6783a4a77eba2711cacf50de45d8f4aa81d8c9b4b31f7482498ce2729362",
    ),
    "mu-nat-budget-40": (
        "F = 1 + X\nmu F size nat budget 40\n",
        2,
        "1ba5f2425489b61e1ba3f88d4479b0c7cd2c1dde47a5a99bedd16e2f09f61c43",
    ),
    "nu-budget-7": (
        "F = 1 + X*X\nnu F budget 7\n",
        2,
        "2c72124a5345088a8691ea4a7589a13dd330e8c0fd028003e5894bee133d4902",
    ),
    # the chain workload's heaviest script: 69,077 bytes, maps kept as ranges
    "mu-nat-budget-1000": (
        "F = 1 + X\nmu F size nat budget 1000\n",
        2,
        "0852eb1621b19160edfb9c19e867e45b8be2637c46fa4b3b0c4dc5a2c87d3a09",
    ),
    # stops on the 2,598,061-element carrier P(stage 6) against the cap
    "iterate-sym-cap": (
        "P = 1 + sym<swap2> X\niterate P depth 8\n",
        2,
        "2c5137c5a6e24723f20f0f185d653c2d653c5c42f698b0b0101ee2a427dda220",
    ),
    # a container fold at the fold workload's size, a 458,330-entry table
    "sig-cata-stage-6": (
        "sig S = lf:0 | nd:2\nT = S\nalg A : T 3 = 0 1 2 0 0 1 2 2 0 1\n"
        "cata T A stage 6\n",
        0,
        "aaa90c06c741f27d39c2ad37ad5afec7acd7b00c87c3cf2efa48a07f67a7a141",
    ),
    # fold values 0..11: the table is not all digits, so json.dumps writes it
    "cata-12-stage-6": (
        "F = 1 + X*X\nalg A : F 12 = 0 "
        + " ".join(str((5 * a + 7 * b + 1) % 12) for b in range(12) for a in range(12))
        + "\ncata F A stage 6\n",
        0,
        "e09974ee468c396fd2853d84e3417cf653c97ab390d702610351beb37e1d7483",
    ),
}


@pytest.mark.parametrize(
    "script, exit_code, digest", PINNED_JSON.values(), ids=PINNED_JSON.keys()
)
def test_json_output_bytes_are_pinned(tmp_path, capsys, script, exit_code, digest):
    code, out, err = run_cli(tmp_path, capsys, script, "--format", "json")
    assert code == exit_code
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the text output, taken from the commit before digit tables were
# written by one interleave pass: the text writer's 458,330-entry table
PINNED_TEXT = {
    "cata-stage-6": "22047ea286dff169beaea089f242f4b721d9c19e56a4ef5ea67adf0cc82fc7b5",
}


@pytest.mark.parametrize("name", PINNED_TEXT)
def test_text_output_bytes_are_pinned(tmp_path, capsys, name):
    script, exit_code, _ = PINNED_JSON[name]
    code, out, err = run_cli(tmp_path, capsys, script)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_TEXT[name]


def rendered(render, payload) -> str:
    """The whole text render_json or render_text hands its writer."""
    out: list = []
    render(payload, out.append)
    return "".join(out)


def stdlib_json(payload) -> str:
    """The reference rendering render_json must match byte for byte."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


TRICKY_TEXT = [
    "", "plain", 'say "hi"', "back\\slash", "tab\tnl\ncr\r", "\x00\x1f\x7f",
    "caf\u00e9", "\u2200x. \u03bc", "\U0001f600", "\ud800", ", ", ": ",
]
FLOATS = [0.0, -0.0, 0.1, -2.5, 1e300, 1e-7, 3.0, float("inf"), float("nan")]


def random_leaf(rng: random.Random):
    return rng.choice([
        lambda: rng.choice(TRICKY_TEXT) + str(rng.randrange(3)),
        lambda: rng.randint(-(10**30), 10**30),
        lambda: rng.randint(-3, 3),
        lambda: rng.choice(FLOATS),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([True, False, None]),
    ])()


def random_payload(rng: random.Random, depth: int):
    kind = rng.randrange(8) if depth else 0
    if kind == 0:
        return random_leaf(rng)
    if kind == 1:
        return rng.choice([[], {}, ()])
    if kind == 2:
        ints = [rng.randint(-(10**20), 10**20) for _ in range(rng.randrange(1, 30))]
        return tuple(ints) if rng.random() < 0.3 else ints
    if kind == 3:
        ints = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 8))]
        ints.insert(rng.randrange(len(ints) + 1), rng.choice([True, False, None, 1.0]))
        return ints
    items = [random_payload(rng, depth - 1) for _ in range(rng.randrange(1, 5))]
    if kind in (4, 5):
        return {rng.choice(TRICKY_TEXT) + str(i): v for i, v in enumerate(items)}
    return tuple(items) if kind == 6 else items


def test_render_json_matches_the_stdlib_encoder_on_random_payloads():
    rng = random.Random(20211018)
    for _ in range(400):
        payload = {"reports": random_payload(rng, 4), "version": random_leaf(rng)}
        assert rendered(render_json, payload) == stdlib_json(payload)
        _write_json(payload, "\n", [].append)  # covered without the stdlib fallback


def digit_list(rng: random.Random):
    """A list of ints in 0..9, or one with an item that is not a digit."""
    items = [rng.randrange(10) for _ in range(rng.choice([1, 2, 5, 40]))]
    if rng.random() < 0.5:
        odd = rng.choice([10, -1, 255, 256, 10**20, True, False])
        items.insert(rng.randrange(len(items) + 1), odd)
    return tuple(items) if rng.random() < 0.3 else items


def test_render_json_writes_digit_lists_like_the_stdlib_encoder():
    rng = random.Random(7)
    fixed = [[0], (9,), [3, 0, 9], [10], [0, 10], [-1, 5], [True], [1, False]]
    for table in fixed + [digit_list(rng) for _ in range(300)]:
        payload = {"fold": {"size": 10, "table": table}, "tables": [table, [table]]}
        assert rendered(render_json, payload) == stdlib_json(payload)
    # a bytes table is written as the list of its ints: all digits, values
    # 10..255, and empty
    raws = [b"", b"\x00", b"\x09\x00\x03", bytes(range(10)) * 7, bytes(range(10, 256))]
    raws += [bytes(rng.randrange(256) for _ in range(rng.choice([1, 5, 40]))) for _ in range(50)]
    for raw in raws:
        payload = {"fold": {"size": 256, "table": raw}, "tables": [raw, [raw]]}
        listed = {"fold": {"size": 256, "table": list(raw)}, "tables": [list(raw), [list(raw)]]}
        assert rendered(render_json, payload) == stdlib_json(listed)


def test_render_text_writes_a_table_as_its_list():
    # a table holds ints: bytes, a tuple, or a range's list
    rng = random.Random(11)
    tables = [b"", (), b"\x02\x00\x01", bytes(range(10, 20)), (0, 300), [7] * 9]
    for _ in range(100):
        table = [rng.randrange(10) for _ in range(rng.choice([1, 2, 5, 40]))]
        if rng.random() < 0.5:
            table.insert(rng.randrange(len(table) + 1), rng.choice([10, -1, 255, 256, 10**20]))
        narrow = 0 <= min(table) and max(table) < 256
        tables.append(rng.choice([bytes, tuple, list])(table) if narrow else table)
    for table in tables:
        payload = {"reports": [{"command": "cata", "fold": {"size": 9, "table": table}}]}
        assert rendered(render_text, payload) == f"cata\n  fold: {list(table)}\n"


@pytest.mark.parametrize("length", [0, 1, 2, 100_001])
def test_digit_tables_of_any_length_render_as_their_list(length):
    # the first digit is written apart from the rest, and none is dropped
    raw = bytes(random.Random(length).choices(range(10), k=length))
    for table in (raw, tuple(raw), list(raw)):
        for nest in (
            lambda t: {"table": t},
            lambda t: {"reports": [{"fold": {"size": 10, "table": t}}]},
        ):
            assert rendered(render_json, nest(table)) == stdlib_json(nest(list(table)))
        payload = {"reports": [{"command": "cata", "fold": {"size": 10, "table": table}}]}
        assert rendered(render_text, payload) == f"cata\n  fold: {list(table)}\n"


def test_render_json_writes_profiles_like_the_stdlib_encoder():
    # a list of flat dicts of str and int values, with a bool, a float or
    # None among them too, is written item by item
    rng = random.Random(16)
    for _ in range(200):
        stages = [
            {"index": rng.choice(TRICKY_TEXT) + str(n), "size": rng.randint(-(10**30), 10**30)}
            for n in range(rng.randrange(0, 12))
        ]
        flat = {
            rng.choice(TRICKY_TEXT) + str(i): random_leaf(rng)
            for i in range(rng.randrange(4))
        }
        payload = {"reports": [{"stages": stages, "flat": flat, "line": 3}]}
        assert rendered(render_json, payload) == stdlib_json(payload)
    # so is a long list of rows, a list holding an empty dict, and a list
    # that mixes flat and nested dicts
    stages = [{"index": "succ(" * (n % 7) + "bot" + ")" * (n % 7), "size": n} for n in range(1500)]
    nested = {"index": "x", "sizes": [1, 2], "deeper": {"a": 1}}
    for items in (stages, [stages[0], nested, stages[1]], [nested, {}], [{}, {"a": "b"}]):
        payload = {"reports": [{"stages": items, "line": 3}]}
        assert rendered(render_json, payload) == stdlib_json(payload)


def test_render_json_writes_lists_of_flat_dicts_like_the_stdlib_encoder():
    # a list of dicts under one set of str keys with str or int values, as
    # a profile's rows are, is written item by item as any other list is
    odd = ["caf\u00e9", "\u03bc(\u2200)", 'say "hi"', "back\\slash", "%s", "100%", ""]
    profile = [{"index": text, "size": n} for n, text in enumerate(odd)]
    cases = [
        profile,
        [{"size": n, "index": str(n)} for n in range(3)],  # keys in either order
        [{"%s": "%d", "%%": 1, "\u00e9": "\\"}],
        [{"index": "a", "size": 1}, {"index": "b"}],  # different key sets
        [{"index": "a"}, {"size": 1}],
        [{}],
        [{}, {"a": "b"}],
        [{"index": "a", "size": 1}, {}],
        [{"index": "a", "size": True}, {"index": "b", "size": 2}],  # a bool
        [{"index": "a", "size": 1}, {"index": "b", "size": "2"}],  # mixed column
        [{"index": "a", "size": {"x": 1}}],  # a nested dict
    ]
    for items in cases:
        payload = {"reports": [{"stages": items}], "flat": items[0], "empty": {}}
        assert rendered(render_json, payload) == stdlib_json(payload)
    pieces: list = []
    _write_json(profile, "\n", pieces.append)
    assert "".join(pieces) == json.dumps(profile, sort_keys=True, indent=2)
    for items in ([{"index": "a", 2: "b"}], [{"index": "a"}, {1: 1}]):
        with pytest.raises(TypeError, match=r"^JSON keys must be str, not int$"):
            rendered(render_json, {"stages": items})


@pytest.mark.parametrize("spec", ["nat", "plump"])
@pytest.mark.parametrize("length", [0, 1, 2, 700])
def test_a_profile_is_written_as_its_rows_in_bounded_pieces(spec, length):
    backend = nat_backend() if spec == "nat" else PlumpBackend(Signature.of())
    profile = Profile([(k * 7919) % 1000 for k in range(length)], backend)
    report = {"command": "iterate", "stages": profile}
    rows = {"command": "iterate", "stages": list(profile)}
    pieces: list = []
    render_json({"reports": [report]}, pieces.append)
    assert "".join(pieces) == stdlib_json({"reports": [rows]})
    longest = max(map(len, pieces))
    pieces.clear()
    render_text({"reports": [report]}, pieces.append)
    lines = "".join(f"  D[{row['index']}] size={row['size']}\n" for row in rows["stages"])
    assert "".join(pieces) == "iterate\n" + lines
    # a piece ends at the row that takes it past the bound
    row = 6 * length + 60
    assert max(longest, *map(len, pieces)) < cli._PIECE + row


def test_render_json_rejects_values_outside_the_payload_types():
    for payload, kind in (
        ({"table": range(3)}, "range"),
        ({"reports": [{"seen": {1, 2}}]}, "set"),
        ({"keys": {2: "two"}}, "int"),
    ):
        with pytest.raises(TypeError, match=rf"\b{kind}\b"):
            rendered(render_json, payload)


C = cli._CHUNK

# (name, values a table draws from): digits only, values 10..255 among
# digits, values of 256 and above, and negative values
TABLE_VALUES = [
    ("digits", range(10)),
    ("bytes", range(256)),
    ("wide", range(1000)),
    ("negative", range(-20, 10)),
]


def chunk_tables():
    """Tables of every length around the piece size, as bytes, tuple and list."""
    rng = random.Random(C)
    for length in (0, 1, C - 1, C, C + 1, 2 * C, 2 * C + 1, 2 * C + 2, 3 * C - 1):
        for name, values in TABLE_VALUES:
            items = rng.choices(values, k=length)
            if length == 3 * C - 1:
                # a piece with a value outside 0..9 (unless all are digits),
                # then a piece of digits only and a short one
                items[C] = max(values)
                items[C + 1:] = rng.choices(range(10), k=2 * C - 2)
            elif length > C + 1:
                # one piece of digits only, the next with a wide value last
                items[1:C + 1] = rng.choices(range(10), k=C)
                items[-1] = max(values)
            kinds = (bytes, tuple, list) if min(values) >= 0 and max(values) < 256 else (tuple, list)
            for kind in kinds:
                yield f"{name}-{length}-{kind.__name__}", kind(items)


def test_tables_at_the_piece_boundaries_render_as_their_list():
    for name, table in chunk_tables():
        payload = {"reports": [{"command": "cata", "fold": {"size": 9, "table": table}}]}
        listed = {"reports": [{"command": "cata", "fold": {"size": 9, "table": list(table)}}]}
        assert rendered(render_json, payload) == stdlib_json(listed), name
        assert rendered(render_text, payload) == f"cata\n  fold: {list(table)}\n", name


def test_main_writes_the_same_text_as_the_renderers(tmp_path, monkeypatch):
    reports = [
        {"command": "cata", "line": n, "fold": {"size": 9, "table": table}}
        for n, (_, table) in enumerate(chunk_tables())
    ]
    payload = {"version": muiter.__version__, "reports": reports}
    monkeypatch.setattr(cli.Runner, "run", lambda self: (0, payload))
    script = tmp_path / "script.mi"
    script.write_text("F = 1 + X\n")
    for flags, render in (((), render_text), (("--format", "json"), render_json)):
        sink = io.StringIO()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main([str(script), *flags]) == 0
        assert sink.getvalue() == rendered(render, payload)


FOLD_2 = PINNED_JSON["cata-stage-6"][0]
FOLD_12 = PINNED_JSON["cata-12-stage-6"][0]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "text", ["F = 1 + X\niterate F depth 2\n", FOLD_2], ids=["tiny", "fold"]
)
def test_a_closed_reader_of_stdout_exits_1_without_a_traceback(tmp_path, text, fmt):
    script = tmp_path / "script.mi"
    script.write_text(text)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "muiter", str(script), "--format", fmt],
            env=child_env(),
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


@pytest.mark.parametrize("text", [FOLD_2, FOLD_12], ids=["2-element", "12-element"])
def test_a_fold_report_is_written_in_bounded_memory(tmp_path, text):
    # the 458,330-entry table's 6 MB of JSON goes out a piece at a time, so
    # the run peaks about where a tiny script does
    code, _, _, tiny_rss = run_limited(tmp_path, "F = 1 + X\niterate F depth 2\n")
    assert code == 0
    code, payload, _, rss = run_limited(tmp_path, text)
    assert code == 0
    assert len(payload["reports"][0]["fold"]["table"]) == 458330
    assert rss - tiny_rss < 4 * 2**20


def test_missing_file_is_a_usage_error(capsys):
    code = main(["/nonexistent/script.mi"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err


def test_unknown_flag_exits_one(capsys):
    assert main(["--wat"]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_one(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "F = 1 +\n")
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "text, column",
    [
        ("F = " + "(" * 250 + "X" + ")" * 250 + "\nmu F\n", 5 + MAX_NESTING),
        ("F = " + "mu Y. 1 + " * 300 + "X\nmu F\n", 5 + 10 * MAX_NESTING),
    ],
    ids=["250-parentheses", "300-nested-mu"],
)
def test_an_expression_nested_past_the_cap_is_a_syntax_error(tmp_path, text, column):
    # the parser would otherwise reach the interpreter's recursion limit
    path = tmp_path / "script.mi"
    path.write_text(text)
    done = subprocess.run(
        **muiter_child(path), capture_output=True, text=True, timeout=30
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: 1:{column}: expression nests deeper than the cap {MAX_NESTING}\n"
    )


@pytest.mark.parametrize(
    "expr, command, out",
    [
        ("(" * MAX_NESTING + "X" + ")" * MAX_NESTING, "mu F", "  D[0] size=0\n  D[1] size=0\n"),
        ("sym<swap2> " * MAX_NESTING + "X", "iterate F depth 2", "  D[0] size=0\n  D[1] size=0\n"),
        ("compose(" * MAX_NESTING + "X" + ", 1 + X)" * MAX_NESTING, "iterate F depth 3",
         "  D[0] size=0\n  D[1] size=100\n  D[2] size=200\n"),
        ("mu Y. 1 + " * MAX_NESTING + "X", "iterate F depth 1", "  D[0] size=0\n"),
    ],
    ids=["parentheses", "sym", "compose", "nested-mu"],
)
def test_an_expression_nested_to_the_cap_runs(tmp_path, capsys, expr, command, out):
    code, got, err = run_cli(tmp_path, capsys, f"F = {expr}\n{command}\n")
    assert (code, err) == (0, "")
    assert got.split("\n", 1)[1].startswith(out)


def test_unknown_functor_name_exits_one(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "mu Missing\n")
    assert code == 1
    assert "Missing" in err


def test_zero_budget_exits_one(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "G = 3\nmu G budget 0\n")
    assert code == 1
    assert "budget" in err


def test_algebra_declared_for_another_functor(tmp_path, capsys):
    script = "F = 1 + X*X\nG = 3\nalg pick : G 3 = 0 1 2\ncata F pick\n"
    code, _, err = run_cli(tmp_path, capsys, script)
    assert code == 1
    assert "declared" in err


def test_algebra_table_out_of_carrier(tmp_path, capsys):
    script = "G = 3\nalg bad : G 2 = 0 5 1\ncata G bad\n"
    code, _, err = run_cli(tmp_path, capsys, script)
    assert code == 1
    assert "outside" in err


def test_algebra_table_wrong_length(tmp_path, capsys):
    script = "G = 3\nalg bad : G 2 = 0 1\ncata G bad\n"
    code, _, err = run_cli(tmp_path, capsys, script)
    assert code == 1
    assert "entries" in err


def test_nu_rejects_plump_sizes(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "G = 3\nnu G size plump\n")
    assert code == 1
    assert "numeric" in err


def test_failed_checks_exit_three(tmp_path, capsys, monkeypatch):
    forced = [{"name": "forced", "ok": False, "detail": "induced for the test"}]
    monkeypatch.setattr("muiter.checks.run_checks", lambda *a, **k: forced)
    code, out, err = run_cli(tmp_path, capsys, "check samples 1\n")
    assert code == 3
    assert "FAIL forced" in out


# -- planted faults: each law line of check can fail -----------------------------


def failed_checks(tmp_path, capsys, text):
    """Run a check script that must fail; its failing (name, detail) pairs."""
    code, payload, err = run_json(tmp_path, capsys, text)
    assert (code, err) == (3, "")
    (report,) = payload["reports"]
    return [(c["name"], c["detail"]) for c in report["checks"] if not c["ok"]]


# A wrong order on nat shows in the first sampled triple that meets the
# wrong pair.  Whichever law that triple breaks first is the line that
# reports, so each seed below is one whose first such triple breaks the
# named line; other seeds report another triple line or a rank line.
NAT_LT = NatBackend.lt
NAT_LEQ = NatBackend.leq


@pytest.mark.parametrize(
    "extra_lt, extra_leq, depth, seed, detail",
    [
        ({(1, 0)}, set(), 1, 0, "strict without lax"),
        (set(), {(1, 0)}, 1, 3, "lt;leq not strict"),
        (set(), {(1, 0)}, 1, 1, "leq;lt not strict"),
        (set(), {(2, 1), (1, 0)}, 2, 6, "lax order not transitive"),
    ],
    ids=["strict-without-lax", "lt-leq", "leq-lt", "lax-transitive"],
)
def test_a_planted_order_fault_fails_its_triple_line(
    tmp_path, capsys, monkeypatch, extra_lt, extra_leq, depth, seed, detail
):
    # the faults only add pairs below the diagonal, which no other suite asks
    monkeypatch.setattr(
        NatBackend, "lt", lambda s, i, j: NAT_LT(s, i, j) or (i, j) in extra_lt
    )
    monkeypatch.setattr(
        NatBackend, "leq", lambda s, i, j: NAT_LEQ(s, i, j) or (i, j) in extra_leq
    )
    text = f"check samples 20 depth {depth} seed {seed}\n"
    assert failed_checks(tmp_path, capsys, text) == [("order-laws", detail)]


# Faults each index meets on its own, seen by the first sampled index:
# join, the filtered bounds and the basis ask nothing they break.
@pytest.mark.parametrize(
    "attr, fault, detail",
    [
        ("lt", lambda s, i, j: i <= j, "strict order is reflexive at 3"),
        ("leq", lambda s, i, j: i < j, "lax order is irreflexive at 3"),
        ("bottom", lambda s: 4, "bottom above 3"),
        ("succ", lambda s, i: i, "successor not above 3"),
    ],
    ids=["strict-reflexive", "lax-irreflexive", "bottom-above", "successor-above"],
)
def test_a_planted_order_fault_fails_its_index_line(
    tmp_path, capsys, monkeypatch, attr, fault, detail
):
    monkeypatch.setattr(NatBackend, attr, fault)
    text = "check samples 20 depth 3 seed 0\n"
    assert failed_checks(tmp_path, capsys, text) == [("order-laws", detail)]


# Two plump orders whose lax half is the strict one or identity: one
# ranks trees of a height by their rendering as well, which only the strict
# rank line sees; the other ranks by height alone, so trees of one height
# are lax-incomparable, which only the lax rank line sees.
@pytest.mark.parametrize(
    "strict, detail",
    [
        (
            lambda s, i, j: (height(i), s.render(i)) < (height(j), s.render(j)),
            "strict order disagrees with rank",
        ),
        (lambda s, i, j: height(i) < height(j), "lax order disagrees with rank"),
    ],
    ids=["strict-rank", "lax-rank"],
)
def test_a_planted_order_fault_fails_its_rank_line(
    tmp_path, capsys, monkeypatch, strict, detail
):
    monkeypatch.setattr(PlumpBackend, "lt", strict)
    monkeypatch.setattr(PlumpBackend, "leq", lambda s, i, j: i is j or strict(s, i, j))
    text = "check size plump samples 200 depth 3 seed 0\n"
    assert failed_checks(tmp_path, capsys, text) == [("order-laws", detail)]


def test_a_join_below_its_right_argument_fails_the_join_bounds(
    tmp_path, capsys, monkeypatch
):
    # join(i, j) as succ(i): the successor stays, the join of a shallow and a
    # deep tree is not above the deep one.  Under a signature with operations
    # the filtered families are bounded by those operations, not by join.
    monkeypatch.setattr(PlumpBackend, "join", lambda s, i, j: s.node(s.join_op, (i, i)))
    text = "sig S = a:0 | b:2\ncheck size plump:S samples 60 depth 4 seed 0\n"
    assert failed_checks(tmp_path, capsys, text) == [
        (
            "join-bounds",
            "join of bot and b(bot, b(join(bot, succ(a)), a)) not an upper bound",
        )
    ]


def test_a_basis_member_not_below_its_index_fails_the_basis(
    tmp_path, capsys, monkeypatch
):
    # an off-by-one basis: i itself instead of i - 1
    monkeypatch.setattr(NatBackend, "predecessor_basis", lambda s, i: (i,))
    assert failed_checks(tmp_path, capsys, "check samples 20 depth 3\n") == [
        ("predecessor-basis", "basis member 1 not below 1")
    ]


def test_a_join_without_its_step_fails_the_filtered_bounds(
    tmp_path, capsys, monkeypatch
):
    # join as max bounds a nat family laxly, not strictly; nat's successor
    # and the join-bounds suite's upper bounds stay
    monkeypatch.setattr(NatBackend, "join", lambda s, i, j: max(i, j))
    assert failed_checks(tmp_path, capsys, "check samples 20 depth 3\n") == [
        ("filtered-bounds", "some sampled family had no strict upper bound")
    ]


def test_an_apex_class_no_leg_reaches_fails_the_cocone_laws(
    tmp_path, capsys, monkeypatch
):
    # the colimit with one more class in its apex: the legs still commute
    from muiter import checks
    from muiter.colimit import Cocone, subdiagram_colimit

    def spare_class(d):
        cocone = subdiagram_colimit(d)
        return Cocone(d, FiniteSet(cocone.apex.size + 1), cocone._quotient)

    monkeypatch.setattr(checks, "subdiagram_colimit", spare_class)
    assert failed_checks(tmp_path, capsys, "check samples 20 depth 3\n") == [
        ("cocone-laws", "legs not jointly surjective in trial 0")
    ]


def test_legs_that_ignore_the_arrows_fail_the_cocone_laws(
    tmp_path, capsys, monkeypatch
):
    # the sum of the objects with no class merged: the legs still reach
    # every class, but an arrow followed by its target's leg moves a point
    from muiter import checks
    from muiter.colimit import Cocone, subdiagram_colimit

    def unglued(d):
        subdiagram_colimit(d)  # a diagram that is not directed still raises
        size = sum(part.size for part in d.objects.values())
        return Cocone(d, FiniteSet(size), range(size))

    monkeypatch.setattr(checks, "subdiagram_colimit", unglued)
    assert failed_checks(tmp_path, capsys, "check samples 20 depth 3\n") == [
        ("cocone-laws", "leg mismatch on arrow (0, 1) in trial 0")
    ]


def test_a_functor_that_moves_identities_fails_the_identity_law(
    tmp_path, capsys, monkeypatch
):
    # F(id) lands in a codomain one element larger.  The chain suite reads
    # only the tables of its maps, so it passes at this seed; at seed 0 a
    # chain arrow is an identity, and the moved map makes an ill-typed diagram.
    from muiter import checks

    real = checks.eval_functor_mor

    def moved(e, fns, then=None):
        fn = real(e, fns, then)
        if all(f == FiniteFn.identity(f.dom) for f in fns):
            return FiniteFn(fn.dom, FiniteSet(fn.cod.size + 1), fn.table)
        return fn

    monkeypatch.setattr(checks, "eval_functor_mor", moved)
    text = "F = 1 + X*X\ncheck samples 20 depth 3 seed 1\n"
    assert failed_checks(tmp_path, capsys, text) == [
        ("functor-laws[F]", "identity not preserved at sizes (2,)")
    ]


def test_a_functor_that_turns_merging_maps_fails_the_composition_law(
    tmp_path, capsys, monkeypatch
):
    # F(f) of a map f that merges two points goes one step round F's
    # codomain; identities and the chain suite's injections stay as they are
    from muiter import checks

    real = checks.eval_functor_mor

    def turned(e, fns, then=None):
        fn = real(e, fns, then)
        if all(f.is_injective() for f in fns):
            return fn
        return FiniteFn(fn.dom, fn.cod, [(v + 1) % fn.cod.size for v in fn.table])

    monkeypatch.setattr(checks, "eval_functor_mor", turned)
    text = "F = 1 + X*X\ncheck samples 20 depth 3 seed 0\n"
    assert failed_checks(tmp_path, capsys, text) == [
        ("functor-laws[F]", "composition not preserved at sizes (3,)")
    ]


def _moves_identities(fn, fns):
    # F(id) lands in a codomain one element larger
    if all(f == FiniteFn.identity(f.dom) for f in fns):
        return FiniteFn(fn.dom, FiniteSet(fn.cod.size + 1), fn.table)
    return fn


def _turns_every_other_map(fn, fns):
    # F(f) of a map f that is no identity goes one step round F's codomain
    if all(f == FiniteFn.identity(f.dom) for f in fns) or fn.cod.size < 2:
        return fn
    return FiniteFn(fn.dom, fn.cod, [(v + 1) % fn.cod.size for v in fn.table])


@pytest.mark.parametrize(
    "fault, seed, failed",
    [
        (
            _moves_identities,
            0,
            [
                ("functor-laws[F]", "identity not preserved at sizes (2,)"),
                (
                    "chain-colimits[F]",
                    "image of chain [3, 3, 4] is not a diagram: "
                    "arrow (0, 1) is 10->11, objects are 10->10",
                ),
            ],
        ),
        (
            _turns_every_other_map,
            3,
            [
                ("functor-laws[F]", "composition not preserved at sizes (1,)"),
                (
                    "chain-colimits[F]",
                    "image of chain [0, 1, 4] is not a diagram: "
                    "triangle 0 -> 1 -> 2 does not commute",
                ),
            ],
        ),
        (
            _turns_every_other_map,
            1,
            [
                ("functor-laws[F]", "composition not preserved at sizes (2,)"),
                (
                    "chain-colimits[F]",
                    "canonical comparison map ill defined on chain [1, 1, 2]",
                ),
            ],
        ),
        (
            _turns_every_other_map,
            5,
            [
                ("functor-laws[F]", "composition not preserved at sizes (3,)"),
                (
                    "chain-colimits[F]",
                    "canonical comparison map ill defined on chain [2, 2, 3]",
                ),
            ],
        ),
    ],
    ids=["ill-typed", "not-functorial", "ill-defined-seed-1", "ill-defined-seed-5"],
)
def test_a_functor_whose_maps_make_no_diagram_fails_the_chain_suite(
    tmp_path, capsys, monkeypatch, fault, seed, failed
):
    # the chain suite applies F to a chain of three sets; maps that are no
    # diagram, or whose images of the legs induce no map out of the
    # colimit, fail its line, and the report goes on
    from muiter import checks

    real = checks.eval_functor_mor
    monkeypatch.setattr(
        checks, "eval_functor_mor", lambda e, fns, then=None: fault(real(e, fns, then), fns)
    )
    text = f"F = 1 + X*X\ncheck samples 20 depth 3 seed {seed}\n"
    assert failed_checks(tmp_path, capsys, text) == failed


def test_a_chain_colimit_with_a_spare_class_fails_the_chain_suite(
    tmp_path, capsys, monkeypatch
):
    # the colimit of the sampled chain gets one class no leg reaches, so F
    # of it is larger than the colimit of F's image: the comparison map is
    # well defined but misses a point.  The image's colimit and those of
    # the cocone suite stay as they are.
    from muiter import checks
    from muiter.colimit import Cocone

    chains = []
    real_apply, real_colimit = checks.apply_diagram, checks.subdiagram_colimit

    def applied(e, d):
        chains.append(d)
        return real_apply(e, d)

    def spare_class(d):
        cocone = real_colimit(d)
        if not any(d is chain for chain in chains):
            return cocone
        return Cocone(d, FiniteSet(cocone.apex.size + 1), cocone._quotient)

    monkeypatch.setattr(checks, "apply_diagram", applied)
    monkeypatch.setattr(checks, "subdiagram_colimit", spare_class)
    text = "F = 1 + X*X\ncheck samples 20 depth 3 seed 0\n"
    assert failed_checks(tmp_path, capsys, text) == [
        ("chain-colimits[F]", "comparison map not a bijection on chain [0, 4, 4]")
    ]


def test_an_algebra_entry_equal_to_the_carrier_is_outside_it(tmp_path, capsys):
    text = "F = 1 + X\nalg A : F 2 = 0 2 1\ncata F A\n"
    assert run_cli(tmp_path, capsys, text) == (
        1, "", "error: line 2: algebra table entry 2 outside carrier of size 2\n"
    )


def test_check_samples_above_the_cap_exit_one_before_sampling(tmp_path):
    path = tmp_path / "check.mi"
    for samples in (MAX_SAMPLES + 1, 2_000_000_000):
        path.write_text(f"check size plump samples {samples}\n")
        start = time.perf_counter()
        done = subprocess.run(
            **muiter_child(path), capture_output=True, text=True, timeout=30
        )
        assert time.perf_counter() - start < 5
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == (
            f"error: line 1: samples {samples} exceeds the cap {MAX_SAMPLES}\n"
        )


def test_check_samples_at_the_cap_run(tmp_path, capsys, monkeypatch):
    asked = []
    monkeypatch.setattr(
        "muiter.checks.run_checks", lambda *a, samples, **k: asked.append(samples) or []
    )
    code, _, _ = run_cli(tmp_path, capsys, f"check samples {MAX_SAMPLES}\n")
    assert code == 0
    assert asked == [MAX_SAMPLES] == [100_000]


def test_version_flag(capsys):
    code = main(["--version"])
    captured = capsys.readouterr()
    assert code == 0
    assert muiter.__version__ in captured.out


# -- the command line ---------------------------------------------------------------

USAGE = """\
usage: muiter [-h] [--size SIZE] [--budget BUDGET] [--depth DEPTH]
              [--seed SEED] [--format {text,json}] [--version]
              [script]
"""

HELP = (
    USAGE
    + """
Iterate set functors to their fixed points, per script.

positional arguments:
  script                script file to run ('-' or absent reads stdin)

options:
  -h, --help            show this help message and exit
  --size SIZE           default size discipline: nat, plump, or plump:<sig>
  --budget BUDGET
  --depth DEPTH
  --seed SEED
  --format {text,json}
  --version             show program's version number and exit
"""
)

ARGV_SCRIPT = "F = 1 + X*X\niterate F depth 2\n"

ARGV_JSON = """\
{
  "reports": [
    {
      "budget": 8,
      "command": "iterate",
      "functor": "F",
      "line": 2,
      "size": "nat",
      "stages": [
        {
          "index": "0",
          "size": 0
        },
        {
          "index": "1",
          "size": 1
        }
      ]
    }
  ],
  "version": "0.1.0"
}
"""


def usage_error(message):
    return 1, "", USAGE + f"error: {message}\n"


# Each argv (SCRIPT stands for a file holding ARGV_SCRIPT) with the exit
# code, stdout and stderr it gave when the command line was built on argparse.
ARGV_CASES = [
    (["--help"], (0, HELP, "")),
    (["-h"], (0, HELP, "")),
    (["--version"], (0, "muiter 0.1.0\n", "")),
    (["--wat"], usage_error("unrecognized arguments: --wat")),
    (["--wat", "3", "x.mi"], usage_error("unrecognized arguments: --wat x.mi")),
    (["a", "b", "c"], usage_error("unrecognized arguments: b c")),
    (["--s", "3"], usage_error("ambiguous option: --s could match --size, --seed")),
    (["SCRIPT", "--form", "json"], (0, ARGV_JSON, "")),
    (
        ["SCRIPT", "--size=plump"],
        (0, "iterate F  (size=plump, budget=8)\n  D[bot] size=0\n  D[succ(bot)] size=1\n", ""),
    ),
    (["--budget"], usage_error("argument --budget: expected one argument")),
    (["--budget", "x"], usage_error("argument --budget: invalid int value: 'x'")),
    (["--budget", "-3", "SCRIPT"], (1, "", "error: line 2: budget must be at least 1\n")),
    (
        ["--format", "xml"],
        usage_error("argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    ),
    (["--size", "-x"], usage_error("argument --size: expected one argument")),
    (["--version=1"], usage_error("argument --version: ignored explicit argument '1'")),
    (["--", "SCRIPT"], (0, "iterate F  (size=nat, budget=8)\n  D[0] size=0\n  D[1] size=1\n", "")),
    (
        ["--budget", "2", "SCRIPT", "--budget", "5"],
        (0, "iterate F  (size=nat, budget=5)\n  D[0] size=0\n  D[1] size=1\n", ""),
    ),
]


@pytest.mark.parametrize(
    "argv, expected", ARGV_CASES, ids=[" ".join(argv) for argv, _ in ARGV_CASES]
)
def test_the_command_line_reads_argv_as_before(
    tmp_path, capsys, monkeypatch, argv, expected
):
    monkeypatch.delenv("COLUMNS", raising=False)
    path = tmp_path / "script.mi"
    path.write_text(ARGV_SCRIPT)
    code = main([str(path) if arg == "SCRIPT" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


@pytest.mark.parametrize(
    "script", ["F = 1 + X*X\niterate F\n", "check samples 1\n"], ids=["iterate", "check"]
)
def test_a_negative_depth_flag_is_a_usage_error(tmp_path, capsys, script):
    # check used to fail in the tree sampler, iterate to report no stages
    code, out, err = run_cli(tmp_path, capsys, script, "--depth", "-1")
    assert (code, out, err) == usage_error("argument --depth: must be at least 0, not -1")


def test_the_command_line_loads_neither_argparse_nor_gettext(tmp_path):
    path = tmp_path / "script.mi"
    path.write_text(ARGV_SCRIPT)
    code = (
        "import sys, muiter.cli\n"
        "loaded = lambda: sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "imported = loaded()\n"
        "code = muiter.cli.main([sys.argv[1], '--format', 'json'])\n"
        "print(code, imported, loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(path)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ARGV_JSON + "0 [] []\n"


def test_the_command_line_loads_neither_the_checks_nor_the_colimit_engine(tmp_path):
    # they load on first use: every fixpoint command, --help and --version
    # run without them, and a check command loads both
    guarded, check = tmp_path / "guarded.mi", tmp_path / "check.mi"
    guarded.write_text(GUARDED)
    check.write_text("check samples 1\n")
    code = (
        "import contextlib, io, sys, muiter.cli\n"
        "loaded = lambda: sorted({'muiter.checks', 'muiter.colimit'} & set(sys.modules))\n"
        "seen = [loaded()]\n"
        "for argv in (['--version'], ['--help'], [sys.argv[1]],\n"
        "             [sys.argv[1], '--format', 'json'], [sys.argv[2]]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        seen.append((muiter.cli.main(argv), loaded()))\n"
        "print(seen)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(guarded), str(check)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    both = ["muiter.checks", "muiter.colimit"]
    assert done.stdout == f"{[[]] + [(0, [])] * 4 + [(0, both)]}\n"


def test_the_lazy_names_resolve_in_a_fresh_process():
    code = (
        "from muiter import Diagram, run_checks\n"
        "print(Diagram.__module__, run_checks.__module__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "muiter.colimit muiter.checks\n", ""
    )


@pytest.mark.parametrize(
    "flag, out", [("--version", "muiter 0.1.0\n"), ("--help", HELP)], ids=["version", "help"]
)
def test_python_m_muiter_reads_its_own_argv(flag, out):
    env = child_env()
    env.pop("COLUMNS", None)
    done = subprocess.run(
        [sys.executable, "-m", "muiter", flag],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")
