"""Numbers too long to convert are spec errors at their position.

``int()`` refuses a decimal string longer than the interpreter's
``sys.get_int_max_str_digits()``, and ``float()`` refuses an integer beyond
the largest float.  A spec number of either kind is reported like any other
spec error, with its line and column, and ``repro check`` exits 2 on it.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main
from repro.errors import SpecError, SpecSemanticError, SpecSyntaxError
from repro.spec import load

# 0 (no limit) where the interpreter predates the limit or lifted it.
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_DIGITS = "1" * (_LIMIT + 1)


def _spec(exchange_line: str, pays: str = "$1") -> str:
    return (
        "principal consumer C\n"
        "principal producer P\n"
        "trusted T\n"
        f"{exchange_line} {{\n"
        f"  C pays {pays}\n"
        "  P gives d\n"
        "}\n"
    )


CASES = {
    "deadline beyond a float": (
        _spec("exchange via T deadline 1" + "0" * 400),
        SpecSemanticError,
        (4, 1),
    ),
    "amount beyond int()": (_spec("exchange via T", pays="$" + _DIGITS), SpecSyntaxError, (5, 10)),
    "deadline beyond int()": (
        _spec("exchange via T deadline " + _DIGITS),
        SpecSyntaxError,
        (4, 25),
    ),
}


@pytest.mark.skipif(_LIMIT == 0, reason="this interpreter converts any length")
@pytest.mark.parametrize("case", list(CASES))
def test_long_number_is_a_spec_error_with_its_position(case):
    source, error, (line, column) = CASES[case]
    with pytest.raises(error) as caught:
        load(source)
    assert isinstance(caught.value, SpecError)
    assert (caught.value.line, caught.value.column) == (line, column)


@pytest.mark.skipif(_LIMIT == 0, reason="this interpreter converts any length")
@pytest.mark.parametrize("case", list(CASES))
def test_check_exits_two(case, tmp_path, capsys):
    path = tmp_path / "long.exchange"
    path.write_text(CASES[case][0], encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "line " in capsys.readouterr().err
