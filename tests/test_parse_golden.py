"""Every parse result and error, pinned case by case.

Each case is one spec text and its outcome under :func:`repro.spec.parse`:
a digest of ``repr`` of the :class:`SpecFile` it returns, or the class,
message, line and column of the error it raises.  The texts are

* the shipped ``examples/specs/*.exchange`` and the ``spec`` of every
  ``tests/corpus/*.json``;
* ``format_problem`` of the paper examples, of ``resale_chain(1..8)`` and of
  50 seeded random problems;
* deterministic mutations of five bases (the two paper example specs,
  ``resale_chain(3)``, the scan ring and a spec with a ``trust`` statement):
  each token deleted, the text cut at each token's start and end, each token
  replaced by each of :data:`PROBES`, and each token deleted with a stray
  ``@`` appended, a case whose first error is syntactic but whose lexical
  error, later in the text, is the one reported.

``tests/data/parse_golden.json`` holds a digest of each base text, each
distinct error message once, and one outcome per case: the spec's digest, or
the index of its error's message with the error's line and column.  A
mismatch names its cases.  A base whose digest moved (``format_problem`` or a shipped spec
changed) is reported as such: its cases then test a different text.  To
re-record, run this file as a script from the repository root under
``PYTHONPATH=src`` at a commit whose parser is known good, and write its
output over the fixture.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
from collections.abc import Iterator
from typing import Any

from repro.spec import format_problem, parse, tokenize
from repro.workloads import (
    RandomProblemConfig,
    example1,
    example2,
    example2_broker_trusts_source,
    example2_source_trusts_broker,
    figure7,
    poor_broker,
    random_problem,
    resale_chain,
    simple_purchase,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "data", "parse_golden.json")

#: What each token of a mutation base is replaced by: punctuation, each
#: token class, keywords out of place, each lexical error, and a number
#: longer than ``int()`` converts.
PROBES = (
    "{", "}", "->", "$1", "$", "$1.", "$1.234", '"x', "42",
    "via", "tag", "expects", "deadline", "@", "-", "X", "9" * 5000,
)  # fmt: skip

# The spans of a valid text's tokens, independent of the lexer under test:
# trivia, then one token.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]|\#[^\n]*)*
    ([A-Za-z][A-Za-z0-9_-]*|->|[{}]|\$[0-9]*(?:\.[0-9]*)?|[0-9]+|"[^"\n]*")""",
    re.VERBOSE,
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def bases() -> dict[str, str]:
    """Every unmutated text, by name."""
    texts: dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "specs", "*.exchange"))):
        texts[f"file/{os.path.basename(path)}"] = _read(path)
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.json"))):
        texts[f"corpus/{os.path.basename(path)}"] = json.loads(_read(path))["spec"]
    for build in (
        simple_purchase,
        example1,
        poor_broker,
        example2,
        example2_source_trusts_broker,
        example2_broker_trusts_source,
        figure7,
    ):
        texts[f"paper/{build.__name__}"] = format_problem(build())
    for n in range(1, 9):
        texts[f"chain/{n}"] = format_problem(resale_chain(n))
    config = RandomProblemConfig(n_principals=10, n_exchanges=8, priority_probability=0.7)
    for seed in range(50):
        texts[f"random/{seed}"] = format_problem(random_problem(config, seed=seed))
    return texts


#: The bases that are mutated, by their name in :func:`bases`.
MUTATED = (
    "file/example1.exchange",
    "file/example2.exchange",
    "chain/3",
    "file/scan_ring.exchange",
    "corpus/example2-source-trusts-broker.json",
)


def _spans(text: str) -> list[tuple[int, int]]:
    spans = [match.span(1) for match in _TOKEN.finditer(text)]
    assert len(spans) == len(tokenize(text)) - 1, "a mutation base must be one valid token run"
    return spans


def mutations(text: str) -> Iterator[tuple[str, str]]:
    """``(name, text)`` of every mutation of *text*."""
    for index, (start, end) in enumerate(_spans(text)):
        yield f"delete/{index}", text[:start] + text[end:]
        yield f"delete+lexical/{index}", text[:start] + text[end:] + "\n@\n"
        yield f"cut-before/{index}", text[:start]
        yield f"cut-after/{index}", text[:end]
        for probe_index, probe in enumerate(PROBES):
            yield f"replace/{index}/{probe_index}", text[:start] + probe + text[end:]


def cases() -> Iterator[tuple[str, list[tuple[str, str]]]]:
    """Each base's name with its cases: the base itself, then its mutations."""
    for base, text in bases().items():
        named = [(base, text)]
        if base in MUTATED:
            named.extend((f"{base}/{name}", mutated) for name, mutated in mutations(text))
        yield base, named


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


Outcome = tuple[str, int | None, int | None]


def outcome(text: str) -> str | Outcome:
    """What :func:`parse` does with *text*: the digest of the spec it returns,
    or the error's class and message (without its location) and position."""
    try:
        spec = parse(text)
    except Exception as exc:  # the class is part of the outcome
        line = getattr(exc, "line", None)
        column = getattr(exc, "column", None)
        message = str(exc)
        location = f"line {line}, column {column}: "
        if line is not None and column is not None and message.startswith(location):
            message = message[len(location) :]
        return f"{type(exc).__name__}: {message}", line, column
    return _digest(repr(spec))


def record() -> str:
    """The fixture's text for the parser as it is: one line per base, each
    error message stored once and referred to by index."""
    messages: list[str] = []
    index_of: dict[str, int] = {}
    lines = []
    for base, named in cases():
        row: list[object] = []
        for _, text in named:
            result = outcome(text)
            if isinstance(result, str):
                row.append(result)
            else:
                message, line, column = result
                index = index_of.setdefault(message, len(messages))
                if index == len(messages):
                    messages.append(message)
                row.append([index, line, column])
        lines.append(f"  {json.dumps(base)}: {json.dumps(row, separators=(',', ':'))}")
    digests = {name: _digest(text) for name, text in bases().items()}
    return (
        "{\n"
        f'"bases": {json.dumps(digests, indent=1)},\n'
        f'"messages": {json.dumps(messages, indent=1)},\n'
        '"cases": {\n' + ",\n".join(lines) + "\n}\n}"
    )


def _pinned() -> dict[str, Any]:
    with open(FIXTURE, encoding="utf-8") as handle:
        pinned: dict[str, Any] = json.load(handle)
    return pinned


def test_bases_are_the_recorded_texts():
    pinned = _pinned()["bases"]
    actual = {name: _digest(text) for name, text in bases().items()}
    assert actual == pinned, "a base text moved: its cases no longer test the recorded text"


def test_every_case_parses_as_recorded():
    pinned = _pinned()
    messages = pinned["messages"]
    changed = {}
    total = 0
    for base, named in cases():
        recorded = pinned["cases"][base]
        assert len(recorded) == len(named), f"the cases of {base} moved"
        for (name, text), expected in zip(named, recorded):
            if not isinstance(expected, str):
                index, line, column = expected
                expected = (messages[index], line, column)
            actual = outcome(text)
            total += 1
            if actual != expected:
                changed[name] = (expected, actual)
    assert total == sum(map(len, pinned["cases"].values()))
    assert not changed, f"{len(changed)} of {total} outcomes changed: {sorted(changed.items())[:5]}"


if __name__ == "__main__":
    print(record())
