"""Initial algebras of finite-set functors via size-indexed iteration.

The package computes least fixpoints of functor expressions by iterating
stage colimits over a well-founded directed index order, with numeric and
tree-order backends, plus the dual chain, free algebras, parameterized
fixpoints, and a small script language driving it all.

The package loads what the command line runs; the check suites and the
colimit engine load on first use, by a `check` command, by
IterationState.stage, or by reading a name such as muiter.Diagram.
"""

from .errors import (
    BudgetExceeded,
    DslError,
    DslNameError,
    DslSyntaxError,
    IllTypedArrow,
    IntegrityError,
    MuiterError,
    NoAlgebra,
    NonFunctorialDiagram,
    NoSuchIndex,
    ShapeMismatch,
)
from .finset import FiniteFn, FiniteSet
from .signature import Signature, WTree
from .size import (
    filtered_sample_check,
    height,
    kappa_sigma,
    nat_backend,
)
from .functors import (
    Compose,
    Constant,
    Container,
    FunctorExpr,
    Identity,
    MuParam,
    Power,
    Product,
    Projection,
    Sum,
    SymContainer,
    eval_functor,
    eval_functor_mor,
)
from .iteration import (
    AlgebraSpec,
    FreeResult,
    IterationState,
    MuResult,
    NuResult,
    catamorphism,
    deflationary_nu,
    free_algebra,
    inflationary_iterate,
    mu_initial_algebra,
)
from .dsl import parse_script
from .size import successor_tower

__version__ = "0.1.0"

# names whose modules load on first use, by module
_LAZY = {
    "Cocone": "colimit",
    "Diagram": "colimit",
    "subdiagram_colimit": "colimit",
    "run_checks": "checks",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())

__all__ = [
    "__version__",
    "MuiterError",
    "ShapeMismatch",
    "NonFunctorialDiagram",
    "NoSuchIndex",
    "IllTypedArrow",
    "NoAlgebra",
    "BudgetExceeded",
    "IntegrityError",
    "DslError",
    "DslSyntaxError",
    "DslNameError",
    "FiniteSet",
    "FiniteFn",
    "Signature",
    "WTree",
    "nat_backend",
    "kappa_sigma",
    "filtered_sample_check",
    "height",
    "Diagram",
    "Cocone",
    "subdiagram_colimit",
    "FunctorExpr",
    "Identity",
    "Projection",
    "Constant",
    "Sum",
    "Product",
    "Power",
    "Compose",
    "Container",
    "SymContainer",
    "MuParam",
    "eval_functor",
    "eval_functor_mor",
    "IterationState",
    "AlgebraSpec",
    "inflationary_iterate",
    "mu_initial_algebra",
    "catamorphism",
    "free_algebra",
    "deflationary_nu",
    "MuResult",
    "FreeResult",
    "NuResult",
    "successor_tower",
    "parse_script",
    "run_checks",
]
