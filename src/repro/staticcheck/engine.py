"""Lint engine: path expansion, rule dispatch, suppression filtering.

The engine is file-type aware so our own Python source and user
``.exchange`` specs share one diagnostics pipeline (ISSUE: one reporter for
both).  ``.py`` files get the AST passes from :mod:`repro.staticcheck.rules`;
``.exchange`` files get the spec semantic checks plus the non-fatal warning
tier from :func:`repro.spec.analyzer.analyze_warnings`.

Only ``Severity.ERROR`` findings gate the exit code; spec warnings are
advisory by design.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import SpecError, StaticCheckError
from repro.staticcheck.context import FileContext
from repro.staticcheck.model import Finding, Severity
from repro.staticcheck.rules import Rule, default_rules
from repro.staticcheck.suppress import is_suppressed

#: Rule code attached to files the linter cannot parse at all.
PARSE_RULE = "PARSE001"
#: Rule code attached to spec files that fail semantic analysis outright.
SPEC_ERROR_RULE = "SPEC000"
#: Rule code warning about unknown rule codes inside a noqa marker.
NOQA_RULE = "NOQA001"


def expand_paths(paths: Iterable[str]) -> tuple[Path, ...]:
    """Resolve *paths* to the lintable files beneath them, deterministically.

    Directories are searched recursively for ``*.py`` and ``*.exchange``
    files (``__pycache__`` skipped); a missing path raises
    :class:`StaticCheckError` (a usage error — exit code 2 at the CLI).
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for pattern in ("*.py", "*.exchange"):
                files.extend(
                    candidate
                    for candidate in sorted(path.rglob(pattern))
                    if "__pycache__" not in candidate.parts
                )
        elif path.is_file():
            files.append(path)
        else:
            raise StaticCheckError(f"no such file or directory: {raw!r}")
    return tuple(dict.fromkeys(files))


def lint_python_source(
    path: str, source: str, rules: tuple[Rule, ...]
) -> list[Finding]:
    """Run the applicable AST rules over one Python source buffer."""
    try:
        ctx = FileContext.build(path, source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                column=(exc.offset or 0) + 1,
                rule=PARSE_RULE,
                message=f"cannot parse: {exc.msg}",
            )
        ]
    findings = [
        finding
        for rule in rules
        if rule.applies_to(path)
        for finding in rule.visit(ctx)
    ]
    findings.extend(_unknown_noqa_codes(ctx))
    return [
        finding
        for finding in findings
        if not is_suppressed(ctx.suppressions, finding.line, finding.rule)
    ]


def _unknown_noqa_codes(ctx: FileContext) -> Iterator[Finding]:
    """WARNING findings for noqa markers naming codes nothing can emit.

    A typo'd waiver (``noqa[DET01]``) otherwise passes silently and the
    finding it meant to suppress fails the build somewhere else — or
    worse, the waiver outlives the rule it named.  Checked against the
    full registry (not the ``--select`` subset) plus the engine's own
    synthetic codes.
    """
    from repro.staticcheck.rules import REGISTRY

    known = set(REGISTRY) | {PARSE_RULE, SPEC_ERROR_RULE, NOQA_RULE}
    for line in sorted(ctx.noqa_lines):
        codes = ctx.noqa_lines[line]
        if codes is None:
            continue  # the bare form names nothing to validate
        for code in sorted(codes - known):
            yield Finding(
                path=ctx.path,
                line=line,
                column=1,
                rule=NOQA_RULE,
                message=(
                    f"noqa marker names unknown rule code {code!r} — "
                    "it suppresses nothing"
                ),
                suggestion="fix the code, or drop it from the marker",
                severity=Severity.WARNING,
            )


def lint_spec_source(path: str, source: str) -> list[Finding]:
    """Semantic errors + the non-fatal warning tier for one ``.exchange`` file."""
    # Imported lazily: the spec analyzer imports staticcheck.model for its
    # warning tier, so a module-level import here would be circular.
    from repro.spec.analyzer import analyze, analyze_warnings
    from repro.spec.parser import parse

    try:
        spec = parse(source)
        analyze(spec)
    except SpecError as exc:
        return [
            Finding(
                path=path,
                line=exc.line or 1,
                column=exc.column or 1,
                rule=SPEC_ERROR_RULE,
                message=str(exc),
            )
        ]
    return analyze_warnings(spec, path=path)


def _lint_file(path: Path, rules: tuple[Rule, ...]) -> Iterator[Finding]:
    try:
        # A byte-order mark is an encoding marker, not text: dropped, it
        # leaves every position where the plain file has it.
        source = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise StaticCheckError(f"cannot read {path}: {exc}") from exc
    if path.suffix == ".exchange":
        yield from lint_spec_source(str(path), source)
    else:
        yield from lint_python_source(str(path), source, rules)


def lint_paths(
    paths: Iterable[str], select: tuple[str, ...] | None = None
) -> list[Finding]:
    """Lint every file under *paths*; returns findings in report order."""
    try:
        rules = default_rules(select)
    except KeyError as exc:
        raise StaticCheckError(f"unknown rule(s): {exc.args[0]}") from exc
    findings: list[Finding] = []
    for path in expand_paths(paths):
        findings.extend(_lint_file(path, rules))
    return sorted(findings, key=lambda finding: finding.sort_key)


def error_count(findings: Iterable[Finding]) -> int:
    """How many findings gate the exit code (warnings are advisory)."""
    return sum(1 for finding in findings if finding.severity is Severity.ERROR)


def self_check() -> None:
    """Assert the rule registry is well-formed (used by the test suite)."""
    rules = default_rules()
    codes = [rule.code for rule in rules]
    if len(set(codes)) != len(codes):
        raise StaticCheckError("duplicate rule codes in registry")
    for rule in rules:
        if not rule.code or not rule.title:
            raise StaticCheckError(f"rule {type(rule).__name__} lacks metadata")
        # Every rule must at least parse an empty module without findings.
        ctx = FileContext.build("<self-check>", "")
        if list(rule.visit(ctx)):
            raise StaticCheckError(f"rule {rule.code} fires on an empty module")
    # ast module must expose everything the visitors rely on (guards against
    # running under an unexpectedly old interpreter).
    for name in ("walk", "iter_child_nodes", "JoinedStr"):
        if not hasattr(ast, name):  # pragma: no cover - interpreter guard
            raise StaticCheckError(f"ast.{name} unavailable")
