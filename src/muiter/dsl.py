"""The script language: declarations plus commands, one per line.

The parser is a hand-rolled recursive descent over a list of tokens,
each a (kind, text, line, column) tuple, so errors point at the
offending spot.
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
pair of parentheses, sym, nested mu or compose around a part of it.  A
declared name stands for its whole expression, so it counts one level
plus the levels its declaration nests (none for a signature).  The
parser descends a few calls per level, and one level more is a syntax
error that names the cap, so the parser, and every evaluator that
recurses on the expression, stays far below the interpreter's recursion
limit.
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
# the most levels of parentheses, sym, nested mu, compose and declared
# names an expression nests
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


def _lex(text: str) -> list:
    """The tokens of text as (kind, text, line, column) tuples, the fields
    of a Token.

    A column counts the characters before it on its line, less those of
    comments: a comment takes no columns, so the NEWLINE that ends one
    stands where the comment began.
    """
    tokens = []
    append = tokens.append
    line = 1
    start = 0  # the column of text[i] is i - start + 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
        elif c == "\n":
            append(("NEWLINE", "\n", line, i - start + 1))
            i += 1
            line += 1
            start = i
        elif c in _SYMBOLS:
            append((c, c, line, i - start + 1))
            i += 1
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("NAME", text[i:j], line, i - start + 1))
            i = j
        elif c.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(("NAT", text[i:j], line, i - start + 1))
            i = j
        elif c == "#":
            j = text.find("\n", i)
            if j < 0:
                j = n
            start += j - i
            i = j
        else:
            raise DslSyntaxError(f"unexpected character {c!r}", line, i - start + 1)
    append(("NEWLINE", "\n", line, n - start + 1))
    append(("EOF", "", line + 1, 1))
    return tokens


def tokenize(text: str) -> list:
    """The tokens of text as Token records; the parser reads the tuples."""
    return [Token(*tok) for tok in _lex(text)]


# -- parser --------------------------------------------------------------


def _syntax_error(tok: tuple, message: str) -> DslSyntaxError:
    return DslSyntaxError(message, tok[2], tok[3])


class Parser:
    """Reads the tokens of _lex by index: kind, text, line, column."""

    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0
        # name -> (role, value, levels): ("sig", Signature, 0), ("functor",
        # expr, the levels its declaration nests) or ("alg", None, 0)
        self.declared: dict = {}
        self.unknown_group: Optional[str] = None
        self.depth = 0  # the levels of nesting around the expression parsed
        self.deepest = 0  # the most levels the declaration parsed reaches

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise _syntax_error(tok, f"expected {what or kind}, found {tok[1]!r}")
        self.i += 1
        return tok

    def expect_word(self, word: str) -> tuple:
        tok = self.tokens[self.i]
        if tok[0] != "NAME" or tok[1] != word:
            raise _syntax_error(tok, f"expected {word!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def expect_nat(self) -> int:
        return int(self.expect("NAT", "a number")[1])

    def fresh_name(self) -> str:
        tok = self.expect("NAME", "a name")
        name = tok[1]
        if name in KEYWORDS:
            raise _syntax_error(tok, f"{name!r} is reserved")
        if name in self.declared:
            raise _syntax_error(tok, f"{name!r} is already declared")
        return name

    def known_name(self, role: str) -> str:
        _, name, line, column = self.expect("NAME", f"a declared {role}")
        if self.declared.get(name, (None,))[0] != role:
            raise DslNameError(f"{line}:{column}: {name!r} is not a declared {role}")
        return name

    # statements

    def parse_script(self) -> tuple:
        statements = []
        while True:
            kind = self.tokens[self.i][0]
            if kind == "EOF":
                return tuple(statements)
            if kind == "NEWLINE":
                self.i += 1
                continue
            statements.append(self.parse_statement())
            tok = self.tokens[self.i]
            if tok[0] not in ("NEWLINE", "EOF"):
                raise _syntax_error(tok, f"expected end of line, found {tok[1]!r}")

    def parse_statement(self):
        tok = self.tokens[self.i]
        if tok[0] != "NAME":
            raise _syntax_error(tok, f"expected a statement, found {tok[1]!r}")
        word = tok[1]
        if word == "sig":
            return self.parse_sig()
        if word == "alg":
            return self.parse_alg()
        if word in COMMAND_WORDS:
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
        while self.tokens[self.i][0] == "|":
            self.i += 1
            ops.append(self.parse_opspec())
        labels = [label for label, _ in ops]
        if len(set(labels)) != len(labels):
            raise _syntax_error(start, f"duplicate operation name in {name!r}")
        sig = Signature.of(*(n for _, n in ops), labels=labels)
        self.declared[name] = ("sig", sig, 0)
        return SigDecl(name, sig, start[2])

    def parse_opspec(self) -> tuple:
        tok = self.expect("NAME", "an operation name")
        if tok[1] in KEYWORDS:
            raise _syntax_error(tok, f"{tok[1]!r} is reserved")
        self.expect(":")
        return tok[1], self.expect_nat()

    def parse_alg(self) -> AlgDecl:
        start = self.advance()
        name = self.fresh_name()
        self.expect(":")
        functor = self.known_name("functor")
        carrier = self.expect_nat()
        self.expect("=")
        table = []
        while self.tokens[self.i][0] == "NAT":
            table.append(self.expect_nat())
        self.declared[name] = ("alg", None, 0)
        return AlgDecl(name, functor, carrier, tuple(table), start[2])

    def parse_funcdecl(self) -> FuncDecl:
        line = self.tokens[self.i][2]
        name = self.fresh_name()
        self.expect("=")
        self.unknown_group = None
        self.deepest = 0
        expr = self.parse_expr(in_mu=False)
        error = None
        if self.unknown_group is not None:
            expr, error = None, f"unknown symmetry group {self.unknown_group!r}"
        self.declared[name] = ("functor", expr, self.deepest)
        return FuncDecl(name, expr, line, error)

    def parse_command(self) -> Command:
        start = self.advance()
        kind = start[1]
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
            tok = self.tokens[self.i]
            word = tok[1]
            if tok[0] != "NAME" or word not in OPTION_WORDS:
                break
            self.i += 1
            if word in seen:
                raise _syntax_error(tok, f"duplicate option {word!r}")
            seen.add(word)
            if word == "size":
                options.append(("size", self.parse_sizespec()))
            else:
                options.append((word, self.expect_nat()))
        return Command(kind, functor, algebra, generators, tuple(options), start[2])

    def parse_sizespec(self) -> str:
        tok = self.expect("NAME", "'nat' or 'plump'")
        if tok[1] == "nat":
            return "nat"
        if tok[1] == "plump":
            if self.tokens[self.i][0] == ":":
                self.i += 1
                return "plump:" + self.known_name("sig")
            return "plump"
        raise _syntax_error(tok, f"expected 'nat' or 'plump', found {tok[1]!r}")

    # expressions

    def reach(self, tok: tuple, levels: int) -> None:
        """Note that the expression parsed reaches levels below the current
        one; a level past MAX_NESTING is a syntax error at tok."""
        deepest = self.depth + levels
        if deepest > MAX_NESTING:
            raise _syntax_error(tok, f"expression nests deeper than the cap {MAX_NESTING}")
        if deepest > self.deepest:
            self.deepest = deepest

    def nested(self, tok: tuple, parse, *args):
        """parse(*args) one level of nesting below tok."""
        self.reach(tok, 1)
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def parse_expr(self, in_mu: bool) -> FunctorExpr:
        parts = [self.parse_term(in_mu)]
        while self.tokens[self.i][0] == "+":
            self.i += 1
            parts.append(self.parse_term(in_mu))
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts))

    def parse_term(self, in_mu: bool) -> FunctorExpr:
        parts = [self.parse_factor(in_mu)]
        while self.tokens[self.i][0] == "*":
            self.i += 1
            parts.append(self.parse_factor(in_mu))
        if len(parts) == 1:
            return parts[0]
        return Product(tuple(parts))

    def parse_factor(self, in_mu: bool) -> FunctorExpr:
        atom = self.parse_atom(in_mu)
        if self.tokens[self.i][0] == "^":
            self.i += 1
            return Power(atom, self.expect_nat())
        return atom

    def parse_atom(self, in_mu: bool) -> FunctorExpr:
        tok = self.tokens[self.i]
        kind, text = tok[0], tok[1]
        if kind == "NAT":
            self.i += 1
            return Constant(FiniteSet(int(text)))
        if kind == "(":
            self.i += 1
            expr = self.nested(tok, self.parse_expr, in_mu)
            self.expect(")")
            return expr
        if kind != "NAME":
            raise _syntax_error(tok, f"expected an expression, found {text!r}")
        if text == "X":
            self.i += 1
            return Identity()
        if text == "Y":
            if not in_mu:
                raise _syntax_error(tok, "Y only makes sense inside a fixpoint body")
            self.i += 1
            return Projection(1)
        if text == "sym":
            self.i += 1
            self.expect("<")
            group = self.expect("NAME", "a symmetry group name")[1]
            self.expect(">")
            arity = BUILTIN_GROUPOIDS.get(group)
            if arity is None:
                self.unknown_group = self.unknown_group or group
            arg = self.nested(tok, self.parse_atom, in_mu)
            if arity is None:
                return None
            sym = SymContainer(arity)
            return sym if arg == Identity() else Compose(sym, (arg,))
        if text == "mu":
            self.i += 1
            self.expect_word("Y")
            self.expect(".")
            return MuParam(self.nested(tok, self.parse_expr, True))
        if text == "compose":
            self.i += 1
            self.expect("(")
            outer = self.nested(tok, self.parse_expr, in_mu)
            self.expect(",")
            inner = self.nested(tok, self.parse_expr, in_mu)
            self.expect(")")
            return Compose(outer, (inner,))
        if text in KEYWORDS:
            raise _syntax_error(tok, f"{text!r} is reserved")
        role, value, levels = self.declared.get(text, (None, None, 0))
        if role not in ("functor", "sig"):
            raise DslNameError(f"{tok[2]}:{tok[3]}: {text!r} is not declared")
        self.reach(tok, 1 + levels)
        self.i += 1
        return Container(value) if role == "sig" else value


def parse_script(text: str) -> tuple:
    return Parser(text).parse_script()
