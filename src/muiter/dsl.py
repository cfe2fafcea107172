"""The script language: declarations plus commands, one per line.

The parser is a hand-rolled recursive descent over a token list; every
token keeps its line and column so errors point at the offending spot.
It builds functor expressions as it goes: X is the first argument
slot and Y the second, so a fixpoint body is a functor in two arguments;
a declared functor's name stands for its expression and a signature's
name for its container.  An unknown symmetry group is kept on its
declaration and raised only when a run reaches it.

Grammar, with NAT a decimal numeral and NAME an identifier:

    script    : { line }
    line      : [ statement ] NEWLINE
    statement : "sig" NAME "=" NAME ":" NAT { "|" NAME ":" NAT }
              | "alg" NAME ":" NAME NAT "=" NAT { NAT }
              | NAME "=" expr
              | "iterate" NAME { option }
              | "mu" NAME { option }
              | "free" NAME NAT { option }
              | "cata" NAME NAME { option }
              | "nu" NAME { option }
              | "check" { option }
    option    : "size" ("nat" | "plump" [":" NAME])
              | ("budget" | "depth" | "stage" | "samples" | "seed") NAT
    expr      : term { "+" term }
    term      : factor { "*" factor }
    factor    : atom [ "^" NAT ]
    atom      : NAT | "X" | "Y" | NAME | "(" expr ")"
              | "sym" "<" NAME ">" atom
              | "mu" "Y" "." expr
              | "compose" "(" expr "," expr ")"

An expression nests at most MAX_NESTING levels deep, a level being one
pair of parentheses, sym, nested mu or compose around a part of it: the
parser descends a few calls per level, and one level more is a syntax
error that names the cap, so the parser stays far below the interpreter's
recursion limit.  A declared name stands for its whole expression, so
declarations that build on one another nest further than the cap.
"""

from __future__ import annotations

from typing import Optional

from .errors import DslNameError, DslSyntaxError
from .finset import FiniteSet
from .functors import (
    BUILTIN_GROUPOIDS,
    Compose,
    Constant,
    Container,
    FrozenRecord,
    FunctorExpr,
    Identity,
    MuParam,
    Power,
    Product,
    Projection,
    Sum,
    SymContainer,
)
from .signature import Signature

COMMAND_WORDS = ("iterate", "mu", "free", "cata", "nu", "check")
OPTION_WORDS = ("size", "budget", "depth", "stage", "samples", "seed")
KEYWORDS = {
    "sig", "alg", *COMMAND_WORDS, *OPTION_WORDS, "nat", "plump", "sym", "compose", "X", "Y"
}
# the most levels of parentheses, sym, nested mu and compose an expression
# nests
MAX_NESTING = 100


# -- statements ----------------------------------------------------------


class SigDecl(FrozenRecord):
    __slots__ = ("name", "sig", "line")
    _defaults = {"line": 0}


class FuncDecl(FrozenRecord):
    # expr is None when error is set: an unknown symmetry group, raised
    # when a run reaches the declaration
    __slots__ = ("name", "expr", "line", "error")
    _defaults = {"line": 0, "error": None}


class AlgDecl(FrozenRecord):
    __slots__ = ("name", "functor", "carrier", "table", "line")
    _defaults = {"line": 0}


class Command(FrozenRecord):
    __slots__ = ("kind", "functor", "algebra", "generators", "options", "line")
    _defaults = dict(functor=None, algebra=None, generators=None, options=(), line=0)

    def option(self, name: str, default=None):
        for k, v in self.options:
            if k == name:
                return v
        return default


# -- tokenizer -----------------------------------------------------------


class Token(FrozenRecord):
    # kind is NAME, NAT, NEWLINE, EOF, or the symbol itself
    __slots__ = ("kind", "text", "line", "column")


_SYMBOLS = "=+*^|:.<>(),"


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("NAT", text[start:i], line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if c in _SYMBOLS:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("NEWLINE", "\n", line, col))
    tokens.append(Token("EOF", "", line + 1, 1))
    return tokens


# -- parser --------------------------------------------------------------


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0
        # name -> (role, value): ("sig", Signature), ("functor", expr)
        # or ("alg", None)
        self.declared: dict = {}
        self.unknown_group: Optional[str] = None
        self.depth = 0  # the levels of nesting around the expression parsed

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(
                f"expected {what or kind}, found {tok.text!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            raise DslSyntaxError(
                f"expected {word!r}, found {tok.text!r}", tok.line, tok.column
            )
        return self.advance()

    def expect_nat(self) -> int:
        return int(self.expect("NAT", "a number").text)

    def fresh_name(self) -> str:
        tok = self.expect("NAME", "a name")
        if tok.text in KEYWORDS:
            raise DslSyntaxError(
                f"{tok.text!r} is reserved", tok.line, tok.column
            )
        if tok.text in self.declared:
            raise DslSyntaxError(
                f"{tok.text!r} is already declared", tok.line, tok.column
            )
        return tok.text

    def known_name(self, role: str) -> str:
        tok = self.expect("NAME", f"a declared {role}")
        if self.declared.get(tok.text, (None,))[0] != role:
            raise DslNameError(
                f"{tok.line}:{tok.column}: {tok.text!r} is not a declared {role}"
            )
        return tok.text

    # statements

    def parse_script(self) -> tuple:
        statements = []
        while self.peek().kind != "EOF":
            if self.peek().kind == "NEWLINE":
                self.advance()
                continue
            statements.append(self.parse_statement())
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "NEWLINE":
                raise DslSyntaxError(
                    f"expected end of line, found {tok.text!r}",
                    tok.line,
                    tok.column,
                )
            self.advance()
        return tuple(statements)

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "NAME":
            raise DslSyntaxError(
                f"expected a statement, found {tok.text!r}", tok.line, tok.column
            )
        if tok.text == "sig":
            return self.parse_sig()
        if tok.text == "alg":
            return self.parse_alg()
        if tok.text in COMMAND_WORDS:
            # "mu" is a command only when followed by a bare name and then
            # options or end of line; "mu Y. ..." never parses as a command
            # because command position requires a declared functor name
            return self.parse_command()
        return self.parse_funcdecl()

    def parse_sig(self) -> SigDecl:
        start = self.advance()
        name = self.fresh_name()
        self.expect("=")
        ops = [self.parse_opspec()]
        while self.peek().kind == "|":
            self.advance()
            ops.append(self.parse_opspec())
        labels = [label for label, _ in ops]
        if len(set(labels)) != len(labels):
            raise DslSyntaxError(
                f"duplicate operation name in {name!r}", start.line, start.column
            )
        sig = Signature.of(*(n for _, n in ops), labels=labels)
        self.declared[name] = ("sig", sig)
        return SigDecl(name, sig, start.line)

    def parse_opspec(self) -> tuple:
        tok = self.expect("NAME", "an operation name")
        if tok.text in KEYWORDS:
            raise DslSyntaxError(
                f"{tok.text!r} is reserved", tok.line, tok.column
            )
        self.expect(":")
        return tok.text, self.expect_nat()

    def parse_alg(self) -> AlgDecl:
        start = self.advance()
        name = self.fresh_name()
        self.expect(":")
        functor = self.known_name("functor")
        carrier = self.expect_nat()
        self.expect("=")
        table = []
        while self.peek().kind == "NAT":
            table.append(self.expect_nat())
        self.declared[name] = ("alg", None)
        return AlgDecl(name, functor, carrier, tuple(table), start.line)

    def parse_funcdecl(self) -> FuncDecl:
        start = self.peek()
        name = self.fresh_name()
        self.expect("=")
        self.unknown_group = None
        expr = self.parse_expr(in_mu=False)
        error = None
        if self.unknown_group is not None:
            expr, error = None, f"unknown symmetry group {self.unknown_group!r}"
        self.declared[name] = ("functor", expr)
        return FuncDecl(name, expr, start.line, error)

    def parse_command(self) -> Command:
        start = self.advance()
        kind = start.text
        functor = algebra = None
        generators = None
        if kind in ("iterate", "mu", "free", "cata", "nu"):
            functor = self.known_name("functor")
        if kind == "free":
            generators = self.expect_nat()
        if kind == "cata":
            algebra = self.known_name("alg")
        options = []
        seen = set()
        while True:
            tok = self.peek()
            if tok.kind != "NAME" or tok.text not in OPTION_WORDS:
                break
            self.advance()
            if tok.text in seen:
                raise DslSyntaxError(
                    f"duplicate option {tok.text!r}", tok.line, tok.column
                )
            seen.add(tok.text)
            if tok.text == "size":
                options.append(("size", self.parse_sizespec()))
            else:
                options.append((tok.text, self.expect_nat()))
        return Command(kind, functor, algebra, generators, tuple(options), start.line)

    def parse_sizespec(self) -> str:
        tok = self.expect("NAME", "'nat' or 'plump'")
        if tok.text == "nat":
            return "nat"
        if tok.text == "plump":
            if self.peek().kind == ":":
                self.advance()
                return "plump:" + self.known_name("sig")
            return "plump"
        raise DslSyntaxError(
            f"expected 'nat' or 'plump', found {tok.text!r}", tok.line, tok.column
        )

    # expressions

    def nested(self, tok: Token, parse, *args):
        """parse(*args) one level of nesting below tok; a level past
        MAX_NESTING is a syntax error at tok."""
        if self.depth == MAX_NESTING:
            raise DslSyntaxError(
                f"expression nests deeper than the cap {MAX_NESTING}",
                tok.line,
                tok.column,
            )
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def parse_expr(self, in_mu: bool) -> FunctorExpr:
        parts = [self.parse_term(in_mu)]
        while self.peek().kind == "+":
            self.advance()
            parts.append(self.parse_term(in_mu))
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    def parse_term(self, in_mu: bool) -> FunctorExpr:
        parts = [self.parse_factor(in_mu)]
        while self.peek().kind == "*":
            self.advance()
            parts.append(self.parse_factor(in_mu))
        if len(parts) == 1:
            return parts[0]
        return Product(tuple(parts))

    def parse_factor(self, in_mu: bool) -> FunctorExpr:
        atom = self.parse_atom(in_mu)
        if self.peek().kind == "^":
            self.advance()
            return Power(atom, self.expect_nat())
        return atom

    def parse_atom(self, in_mu: bool) -> FunctorExpr:
        tok = self.peek()
        if tok.kind == "NAT":
            self.advance()
            return Constant(FiniteSet(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            expr = self.nested(tok, self.parse_expr, in_mu)
            self.expect(")")
            return expr
        if tok.kind != "NAME":
            raise DslSyntaxError(
                f"expected an expression, found {tok.text!r}",
                tok.line,
                tok.column,
            )
        if tok.text == "X":
            self.advance()
            return Identity()
        if tok.text == "Y":
            if not in_mu:
                raise DslSyntaxError(
                    "Y only makes sense inside a fixpoint body",
                    tok.line,
                    tok.column,
                )
            self.advance()
            return Projection(1)
        if tok.text == "sym":
            self.advance()
            self.expect("<")
            group = self.expect("NAME", "a symmetry group name").text
            self.expect(">")
            arity = BUILTIN_GROUPOIDS.get(group)
            if arity is None:
                self.unknown_group = self.unknown_group or group
            arg = self.nested(tok, self.parse_atom, in_mu)
            if arity is None:
                return None
            sym = SymContainer(arity)
            return sym if arg == Identity() else Compose(sym, (arg,))
        if tok.text == "mu":
            self.advance()
            self.expect_word("Y")
            self.expect(".")
            return MuParam(self.nested(tok, self.parse_expr, True))
        if tok.text == "compose":
            self.advance()
            self.expect("(")
            outer = self.nested(tok, self.parse_expr, in_mu)
            self.expect(",")
            inner = self.nested(tok, self.parse_expr, in_mu)
            self.expect(")")
            return Compose(outer, (inner,))
        if tok.text in KEYWORDS:
            raise DslSyntaxError(
                f"{tok.text!r} is reserved", tok.line, tok.column
            )
        role, value = self.declared.get(tok.text, (None, None))
        if role not in ("functor", "sig"):
            raise DslNameError(
                f"{tok.line}:{tok.column}: {tok.text!r} is not declared"
            )
        self.advance()
        return Container(value) if role == "sig" else value


def parse_script(text: str) -> tuple:
    return Parser(text).parse_script()
