import ast
import importlib
from pathlib import Path

import pytest

import muiter

PUBLIC = [
    "AlgebraSpec", "BudgetExceeded", "Cocone", "Compose", "Constant",
    "Container", "Diagram", "DslError", "DslNameError", "DslSyntaxError",
    "FiniteFn", "FiniteSet", "FreeResult", "FunctorExpr", "Identity",
    "IllTypedArrow", "IntegrityError", "IterationState", "MuParam", "MuResult",
    "MuiterError", "NoAlgebra", "NoSuchIndex", "NonFunctorialDiagram",
    "NuResult", "Power", "Product", "Projection", "ShapeMismatch", "Signature", "Sum",
    "SymContainer", "WTree", "__version__", "catamorphism",
    "deflationary_nu", "eval_functor", "eval_functor_mor",
    "filtered_sample_check", "free_algebra", "height",
    "inflationary_iterate", "kappa_sigma",
    "mu_initial_algebra", "nat_backend", "parse_script",
    "run_checks", "subdiagram_colimit", "successor_tower",
]

# what no command-line path reaches, the groupoid colimits that closed-form
# multisets replaced, the element codecs that size arithmetic replaced, and
# the colimit engine's state that a sized chain no longer returns, the
# runner's dispatch and stop report that Runner.run took over, and the
# process-wide tree table and set labels that backends and signatures took
# over, the fixpoint limits that iteration's constants took over, the
# container node that a signature's sum of powers replaced, and the writer
# of lists of flat dicts that a profile's own rows replaced, as paths under
# muiter; the test oracles among these live in tests/reference.py
REMOVED = [
    "colimit.connecting_map",
    "colimit.canonical_product_map",
    "colimit.colimit_commutes_with_finite_limits_check",
    "colimit.Diagram.restrict",
    "colimit.Diagram.down_set",
    "colimit.Cocone.class_of",
    "colimit.Legs",
    "colimit.finite_cat_colimit",
    "colimit._glue",
    "colimit.Cocone.to_json",
    "errors.IndexMismatch",
    "errors.NonInvertibleGroupoidArrow",
    "functors.Pairing",
    "functors.ColimOver",
    "functors.MuParam.backend",
    "functors.MuParam.budget",
    "functors._mu_sizes",
    "functors.Groupoid",
    "functors.swap_groupoid",
    "functors._sym_cocone",
    "functors.infer_signature",
    "functors.Container.sig",
    "finset.Relation",
    "finset.quotient",
    "finset.kernel",
    "finset.exponential",
    "finset.cartesian",
    "finset.tagged_sum",
    "finset.FiniteFn.is_surjective",
    "finset.FiniteSet.to_json",
    "finset.FiniteSet.labels",
    "finset.FiniteSet.label",
    "finset.Exponential",
    "finset.Cartesian",
    "finset.TaggedSum",
    "finset.radix_table",
    "finset.Block",
    "signature.Signature.arity",
    "signature._INTERNED",
    "signature.WTree.sort_key",
    "signature.WTree.node_count",
    "signature.WTree.render",
    "signature.validate_tree",
    "signature.container_apply",
    "signature.wtype_enumerate",
    "signature.ContainerLayout",
    "signature.container_layout",
    "signature.container_map",
    "signature.container_size",
    "signature.signature_sum",
    "signature.empty_signature",
    "iteration.partial_application",
    "iteration.MuResult.state",
    "iteration.MuResult.witness_index",
    "iteration.fold_equation_holds",
    "iteration.mu_of_parameterized",
    "iteration.IterationState._apply_mor",
    "iteration.DEFAULT_MAX_CARRIER",
    "iteration.mu_parameterized",
    "iteration.StageRecord",
    "iteration.IterationState._resolve",
    "iteration.IterationState._build",
    "iteration.IterationState._needs",
    "dsl.format_script",
    "dsl.format_statement",
    "dsl.lower_expr",
    "dsl.SurfaceExpr",
    "dsl.Script",
    "cli.Runner.budget_report",
    "cli.Runner.dispatch",
    "cli._rows_json",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(muiter.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(muiter, name)


def test_a_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from muiter import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(muiter))


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_are_gone(path):
    module, *owner, name = path.split(".")
    obj = importlib.import_module(f"muiter.{module}")
    for attr in owner:
        obj = getattr(obj, attr)
    assert not hasattr(obj, name)
    if not owner:
        assert not hasattr(muiter, name)
        with pytest.raises(ImportError):
            exec(f"from muiter import {name}", {})


def test_functors_imports_nothing_from_the_index_order():
    # a nested fixpoint's numeric stages are iteration's to choose
    tree = ast.parse((Path(muiter.__file__).parent / "functors.py").read_text())
    sources = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert "size" not in sources and "finset" in sources


# __init__ imports names only to re-export them
MODULES = sorted(
    p for p in Path(muiter.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_a_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []
