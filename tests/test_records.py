"""Value semantics of the record classes: functor nodes, script statements
and iteration results are plain __slots__ classes with the equality, hash,
repr and immutability a frozen dataclass would give them."""

import subprocess
import sys

import pytest

from launch import child_env
from muiter.dsl import Command, SigDecl, Token, parse_script, tokenize
from muiter.finset import FiniteFn, FiniteSet
from muiter.functors import (
    Compose,
    Constant,
    Identity,
    MuParam,
    Power,
    Product,
    Projection,
    Sum,
    SymContainer,
)
from muiter.iteration import (
    AlgebraSpec,
    FreeResult,
    MuResult,
    NuResult,
    deflationary_nu,
    free_algebra,
    mu_initial_algebra,
)
from muiter.signature import Signature
from muiter.size import nat_backend

SIG = Signature.of(0, 2, labels=["lf", "nd"])


def node_reprs():
    """Each node kind, newly built, and the repr its frozen dataclass gave."""
    return [
        (Identity(), "Identity()"),
        (Projection(1), "Projection(slot=1)"),
        (Constant(FiniteSet(3)), "Constant(value=FiniteSet(3))"),
        (
            Sum((Identity(), Constant(FiniteSet(1)))),
            "Sum(parts=(Identity(), Constant(value=FiniteSet(1))))",
        ),
        (Sum(()), "Sum(parts=())"),
        (Product((Identity(), Identity())), "Product(parts=(Identity(), Identity()))"),
        (
            Compose(SymContainer(2), Identity()),
            "Compose(outer=SymContainer(arity=2), inner=(Identity(),))",
        ),
        (Power(Identity(), 2), "Power(base=Identity(), exponent=2)"),
        (SymContainer(3), "SymContainer(arity=3)"),
        (
            MuParam(Sum((Constant(FiniteSet(1)), Product((Identity(), Projection(1)))))),
            "MuParam(body=Sum(parts=(Constant(value=FiniteSet(1)), "
            "Product(parts=(Identity(), Projection(slot=1))))))",
        ),
        (MuParam(Projection(1)), "MuParam(body=Projection(slot=1))"),
    ]


SCRIPT = """\
sig S = lf:0 | nd:2
F = 1 + X*X
G = sym<nope> X
alg a : F 2 = 0 1 1 0 1
mu F budget 4
cata F a stage 3
free F 2
check size plump samples 5
"""

# the statements of SCRIPT and the reprs their frozen dataclasses gave
STATEMENT_REPRS = [
    "SigDecl(name='S', sig=Signature(lf:0, nd:2), line=1)",
    "FuncDecl(name='F', expr=Sum(parts=(Constant(value=FiniteSet(1)), "
    "Product(parts=(Identity(), Identity())))), line=2, error=None)",
    "FuncDecl(name='G', expr=None, line=3, error=\"unknown symmetry group 'nope'\")",
    "AlgDecl(name='a', functor='F', carrier=2, table=(0, 1, 1, 0, 1), line=4)",
    "Command(kind='mu', functor='F', algebra=None, generators=None, "
    "options=(('budget', 4),), line=5)",
    "Command(kind='cata', functor='F', algebra='a', generators=None, "
    "options=(('stage', 3),), line=6)",
    "Command(kind='free', functor='F', algebra=None, generators=2, "
    "options=(), line=7)",
    "Command(kind='check', functor=None, algebra=None, generators=None, "
    "options=(('size', 'plump'), ('samples', 5)), line=8)",
]


@pytest.mark.parametrize("node, text", node_reprs(), ids=lambda v: type(v).__name__)
def test_every_node_kind_keeps_its_repr(node, text):
    assert repr(node) == text


def test_every_statement_keeps_its_repr():
    assert [repr(s) for s in parse_script(SCRIPT)] == STATEMENT_REPRS
    assert repr(tokenize("F = X")[:2]) == (
        "[Token(kind='NAME', text='F', line=1, column=1), "
        "Token(kind='=', text='=', line=1, column=3)]"
    )
    assert repr(Command("nu")) == (
        "Command(kind='nu', functor=None, algebra=None, generators=None, "
        "options=(), line=0)"
    )


def test_records_are_equal_by_type_and_fields():
    assert Sum((Identity(),)) != Product((Identity(),))
    assert Identity() == Identity()
    assert Identity() != Projection(0)
    assert Projection(1) != Projection(2)
    assert Projection(1) != 1
    assert Compose(Identity(), [Identity()]) == Compose(Identity(), (Identity(),))
    assert Token("NAT", "3", 1, 1) != Token("NAT", "3", 1, 2)
    assert SigDecl("S", SIG) == SigDecl("S", SIG, line=0)


def test_equal_records_hash_alike():
    for (node, _), (twin, _) in zip(node_reprs(), node_reprs()):
        assert twin == node and twin is not node
        assert hash(twin) == hash(node)
    first, second = parse_script(SCRIPT), parse_script(SCRIPT)
    assert list(map(hash, first)) == list(map(hash, second))
    assert len({Identity(), Identity(), Projection(0)}) == 2


def test_frozen_records_refuse_assignment():
    frozen = [node for node, _ in node_reprs()] + list(parse_script(SCRIPT))
    frozen += [
        Token("EOF", "", 1, 1),
        AlgebraSpec(FiniteSet(1), FiniteFn.identity(FiniteSet(1))),
    ]
    for record in frozen:
        name = (type(record).__slots__ or ("anything",))[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_result_records_are_mutable_and_unhashable():
    mu = mu_initial_algebra(Sum((Constant(FiniteSet(1)), Constant(FiniteSet(2)))), nat_backend())
    free = free_algebra(Constant(FiniteSet(1)), FiniteSet(2), nat_backend())
    nu = deflationary_nu(Constant(FiniteSet(2)))
    for record in (mu, free, nu):
        assert isinstance(record, (MuResult, FreeResult, NuResult))
        with pytest.raises(TypeError):
            hash(record)
    nu.stationary_at = 7
    assert nu.stationary_at == 7


def test_compose_keeps_its_inner_expressions_as_a_tuple():
    e, f = Identity(), Projection(1)
    assert Compose(e, f).inner == (f,)
    assert Compose(e, [f, e]).inner == (f, e)
    assert Compose(e, iter([f])).inner == (f,)


def test_fields_come_by_position_by_name_or_from_defaults():
    assert MuParam.__slots__ == ("body",)
    assert MuParam(body=Identity()) == MuParam(Identity())
    assert Command("mu", "F").options == ()
    with pytest.raises(TypeError):
        Projection()
    with pytest.raises(TypeError):
        Projection(1, 2)
    with pytest.raises(TypeError):
        Projection(1, slot=2)
    with pytest.raises(TypeError):
        SigDecl("S", SIG, colour="red")
    with pytest.raises(TypeError):
        MuParam(Identity(), budget=5)


def test_importing_the_command_line_loads_no_dataclasses():
    # a decorated class compiles its methods at import, and dataclasses
    # pulls in inspect, ast, dis and tokenize; -S leaves site's own imports out
    code = (
        "import sys, muiter.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
