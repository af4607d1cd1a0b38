"""Property: the lexer places every token at the line and column of its offset.

Hypothesis joins random valid tokens with random trivia: spaces, tabs,
``\\r``, ``\\n``, ``\\r\\n`` and ``#`` comments.  The generator knows each
token's offset, so it knows its position: the line is one plus the newlines
before it, and the column counts every character since the last newline,
tabs and carriage returns included.  The text must tokenize back to exactly
the generated tokens at those positions, followed by an EOF placed at the
end of the text.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spec import KEYWORDS, TokenType, tokenize

WORDISH = set(string.ascii_letters + string.digits + "_-")
PRINTABLE = "".join(map(chr, range(32, 127)))

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,6}", fullmatch=True)


@st.composite
def amounts(draw):
    cents = draw(st.integers(min_value=0, max_value=10**7))
    dollars, hundredths = divmod(cents, 100)
    forms = [f"${dollars}.{hundredths:02d}"]
    if hundredths == 0:
        forms.append(f"${dollars}")
    if hundredths % 10 == 0:
        forms.append(f"${dollars}.{hundredths // 10}")
    return draw(st.sampled_from(forms)), TokenType.AMOUNT, cents


words = identifiers.map(
    lambda w: (w, TokenType.KEYWORD if w in KEYWORDS else TokenType.IDENT, w)
)
tokens = st.one_of(
    words,
    st.sampled_from(sorted(KEYWORDS)).map(lambda w: (w, TokenType.KEYWORD, w)),
    st.integers(min_value=0, max_value=10**6).map(lambda n: (str(n), TokenType.NUMBER, n)),
    amounts(),
    st.text(alphabet=PRINTABLE.replace('"', ""), max_size=8).map(
        lambda s: (f'"{s}"', TokenType.STRING, s)
    ),
    st.sampled_from(
        [("{", TokenType.LBRACE, "{"), ("}", TokenType.RBRACE, "}"), ("->", TokenType.ARROW, "->")]
    ),
)
comments = st.text(alphabet=PRINTABLE, max_size=10).map(lambda s: "#" + s)
trivia = st.lists(st.sampled_from([" ", "\t", "\r", "\n", "\r\n", "  "]) | comments, max_size=4)


def _trivia(gap):
    """The text of a trivia run; a comment runs to the end of its line."""
    return "".join(part + "\n" if part.startswith("#") else part for part in gap)


def _layout(pieces):
    """Join (token, trivia) pieces: the text and each token's offset."""
    text = ""
    placed = []
    for (source, kind, value), gap in pieces:
        text += _trivia(gap)
        if text and text[-1] in WORDISH and source[0] in WORDISH:
            text += " "  # the two tokens would merge into one
        placed.append((kind, value, len(text)))
        text += source
    return text, placed


def _position(text, offset):
    line = text.count("\n", 0, offset) + 1
    return line, offset - (text.rfind("\n", 0, offset) + 1) + 1


@given(
    pieces=st.lists(st.tuples(tokens, trivia), max_size=25),
    tail=trivia,
    tail_comment=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_tokens_sit_at_the_positions_of_their_offsets(pieces, tail, tail_comment):
    text, placed = _layout(pieces)
    text += _trivia(tail)
    if tail_comment:
        text += "# no newline at the end"
    expected = [(kind, value, *_position(text, offset)) for kind, value, offset in placed]
    expected.append((TokenType.EOF, "", *_position(text, len(text))))
    assert [(t.type, t.value, t.line, t.column) for t in tokenize(text)] == expected
