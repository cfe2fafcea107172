"""The lexer the parser reads against the record-building tokenizer of
tests/reference.py: the same tokens, or the same syntax error, on script
text and on raw text over every character class the lexer tells apart.
Parsing builds no Token record."""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from muiter import dsl
from muiter.dsl import Token
from muiter.errors import DslSyntaxError
from reference import reference_tokenize
from strategies import script_text

# every symbol, each kind of blank, comments, ASCII letters, digits and
# underscores, and non-ASCII letters and digits: é is a letter, ² a digit
# only inside a name and ٣ a decimal digit
RAW = st.text(st.sampled_from(list(dsl._SYMBOLS + " \t\r\n\f#_aXY09é²٣")), max_size=40)


def lexed(lex, text: str):
    """lex(text), or the message of the syntax error it raises."""
    try:
        return lex(text)
    except DslSyntaxError as e:
        return str(e)


def reference_tuples(text: str) -> list:
    return [(t.kind, t.text, t.line, t.column) for t in reference_tokenize(text)]


@seed(37)
@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(script_text(), RAW))
def test_the_lexer_gives_the_tokens_of_the_reference_tokenizer(text):
    assert lexed(dsl._lex, text) == lexed(reference_tuples, text)
    assert lexed(dsl.tokenize, text) == lexed(reference_tokenize, text)


def test_parsing_builds_no_token(monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields)
        return Token(*fields)

    monkeypatch.setattr(dsl, "Token", counted)
    lines = [f"F{k} = 1 + X*X + sym<swap2> X  # line {k}" for k in range(300)]
    lines += ["sig S = a:0 | b:2", "check size plump:S samples 5", "mu F299 budget 9"]
    assert len(dsl.parse_script("\n".join(lines) + "\n")) == 303
    assert built == []
    # the counter sees what tokenize builds
    assert len(dsl.tokenize("F = X")) == 5 and len(built) == 5
