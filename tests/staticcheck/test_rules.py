"""Self-test harness for the lint rules.

Each fixture under ``fixtures/`` contains exactly one deliberate violation,
marked by an ``expected here`` comment.  The parametrized test asserts the
rule fires exactly on that line — and nowhere in ``src/`` (the acceptance
bar: ``repro lint src`` is clean at HEAD).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.staticcheck import (
    FileContext,
    Severity,
    default_rules,
    lint_paths,
    lint_python_source,
    self_check,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).parents[2] / "src")

RULE_FIXTURES = {
    "DET001": FIXTURES / "core" / "det001_wall_clock.py",
    "DET002": FIXTURES / "det002_set_iteration.py",
    "MUT001": FIXTURES / "mut001_frozen_mutation.py",
    "MONEY001": FIXTURES / "money001_float_math.py",
    "EXC001": FIXTURES / "exc001_control_flow.py",
    "OBS001": FIXTURES / "obs001_span_discipline.py",
    # Flow-sensitive rules (DESIGN.md §14); NET001 lives under net/ to
    # satisfy its package gate.
    "NET001": FIXTURES / "net" / "net001_log_then_act.py",
    "ASY001": FIXTURES / "asy001_blocking_async.py",
    "ASY002": FIXTURES / "asy002_await_race.py",
    "LEDG001": FIXTURES / "ledg001_exception_skew.py",
}

# DET002's sink inference also covers ``*payload*`` names (the flatcore
# bench-artifact builders); a second fixture pins that extension.
PAYLOAD_FIXTURE = FIXTURES / "det002_payload_sink.py"


def expected_line(fixture: Path, code: str) -> int:
    """The 1-based line carrying the deliberate violation marker."""
    for lineno, text in enumerate(
        fixture.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if "expected here" in text and code in text:
            return lineno
    raise AssertionError(f"{fixture} has no marked violation for {code}")


class TestEveryRuleFires:
    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_rule_fires_exactly_at_marker(self, code):
        fixture = RULE_FIXTURES[code]
        findings = lint_paths([str(fixture)])
        assert [f.rule for f in findings] == [code]
        assert findings[0].line == expected_line(fixture, code)
        assert findings[0].severity is Severity.ERROR
        assert findings[0].suggestion  # --fix-suggestions has content

    @pytest.mark.parametrize("code", sorted(RULE_FIXTURES))
    def test_rule_fires_nowhere_in_src(self, code):
        findings = lint_paths([SRC], select=(code,))
        assert findings == []

    def test_whole_fixture_tree_yields_one_finding_per_rule(self):
        findings = lint_paths([str(FIXTURES)])
        expected = sorted(list(RULE_FIXTURES) + ["DET002"])  # + payload fixture
        assert sorted(f.rule for f in findings) == expected

    def test_payload_sink_fixture_fires_exactly_once(self):
        findings = lint_paths([str(PAYLOAD_FIXTURE)])
        assert [f.rule for f in findings] == ["DET002"]
        assert findings[0].line == expected_line(PAYLOAD_FIXTURE, "DET002")
        assert findings[0].severity is Severity.ERROR

    def test_src_is_clean_at_head(self):
        assert lint_paths([SRC]) == []


class TestSuppression:
    def test_line_noqa_silences_the_named_rule(self):
        fixture = RULE_FIXTURES["DET002"]
        source = fixture.read_text(encoding="utf-8")
        line = expected_line(fixture, "DET002")
        lines = source.splitlines()
        lines[line - 1] += "  # repro: noqa[DET002]"
        assert lint_python_source(str(fixture), "\n".join(lines), default_rules()) == []

    def test_bare_noqa_silences_everything(self):
        fixture = RULE_FIXTURES["MUT001"]
        source = fixture.read_text(encoding="utf-8")
        line = expected_line(fixture, "MUT001")
        lines = source.splitlines()
        lines[line - 1] += "  # repro: noqa"
        assert lint_python_source(str(fixture), "\n".join(lines), default_rules()) == []

    def test_noqa_for_a_different_rule_does_not_silence(self):
        fixture = RULE_FIXTURES["EXC001"]
        source = fixture.read_text(encoding="utf-8")
        line = expected_line(fixture, "EXC001")
        lines = source.splitlines()
        lines[line - 1] += "  # repro: noqa[DET001]"
        findings = lint_python_source(str(fixture), "\n".join(lines), default_rules())
        assert [f.rule for f in findings] == ["EXC001"]


class TestRuleHeuristics:
    def test_det001_gated_to_deterministic_packages(self, tmp_path):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        elsewhere = tmp_path / "analysis" / "timing.py"
        elsewhere.parent.mkdir()
        elsewhere.write_text(source, encoding="utf-8")
        assert lint_paths([str(elsewhere)]) == []
        gated = tmp_path / "sim" / "timing.py"
        gated.parent.mkdir()
        gated.write_text(source, encoding="utf-8")
        assert [f.rule for f in lint_paths([str(gated)])] == ["DET001"]

    def test_det001_sees_through_import_aliases(self):
        source = "import random as rnd\n\ndef draw():\n    return rnd.choice([1, 2])\n"
        findings = lint_python_source("core/x.py", source, default_rules())
        assert [f.rule for f in findings] == ["DET001"]

    def test_det001_sees_from_imports(self):
        source = "from random import shuffle\n\ndef mix(xs):\n    shuffle(xs)\n"
        findings = lint_python_source("core/x.py", source, default_rules())
        assert [f.rule for f in findings] == ["DET001"]

    def test_det001_allows_seeded_random(self):
        source = (
            "import random\n\ndef draw(seed):\n"
            "    return random.Random(seed).random()\n"
        )
        assert lint_python_source("core/x.py", source, default_rules()) == []

    def test_det002_sorted_wrapper_is_clean(self):
        source = (
            "def digest(xs):\n"
            "    return '|'.join(sorted(set(xs)))\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_det002_order_insensitive_consumers_are_clean(self):
        source = (
            "def describe(xs):\n"
            "    unique = set(xs)\n"
            "    return max(len(x) for x in unique)\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_det002_ignores_non_sink_functions(self):
        source = (
            "def churn(xs):\n"
            "    for x in set(xs):\n"
            "        print(x)\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_det002_viz_module_is_all_sink(self):
        source = (
            "def helper(xs):\n"
            "    return [x for x in set(xs)]\n"
        )
        findings = lint_python_source("viz/m.py", source, default_rules())
        assert [f.rule for f in findings] == ["DET002"]

    def test_det002_set_union_tracked(self):
        source = (
            "def to_dict(a, b):\n"
            "    merged = set(a) | set(b)\n"
            "    return {x: 1 for x in merged}\n"
        )
        findings = lint_python_source("m.py", source, default_rules())
        assert [f.rule for f in findings] == ["DET002"]

    def test_money001_exempts_fstring_and_dollar_helpers(self):
        fixture = RULE_FIXTURES["MONEY001"]
        findings = lint_paths([str(fixture)])
        assert len(findings) == 1  # only the marked line, not the two exempts

    def test_exc001_catches_assertion_error_handler(self):
        source = (
            "def probe(x):\n"
            "    try:\n"
            "        assert x\n"
            "    except AssertionError:\n"
            "        return False\n"
            "    return True\n"
        )
        findings = lint_python_source("m.py", source, default_rules())
        assert [f.rule for f in findings] == ["EXC001"]

    def test_exc001_flags_swallowed_broad_exception(self):
        source = (
            "def run(job):\n"
            "    try:\n"
            "        job()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = lint_python_source("m.py", source, default_rules())
        assert [f.rule for f in findings] == ["EXC001"]

    def test_mut001_allows_self_mutation(self):
        source = (
            "class C:\n"
            "    def _cache(self, v):\n"
            "        object.__setattr__(self, '_h', v)\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_obs001_context_manager_form_is_clean(self):
        source = (
            "def traced(tracer, edges):\n"
            "    with tracer.span('reduce', {'edges': len(edges)}) as span_id:\n"
            "        tracer.set_attr(span_id, 'ok', True)\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_obs001_flags_span_outside_with(self):
        source = (
            "def traced(tracer):\n"
            "    ctx = tracer.span('reduce')\n"
            "    ctx.__enter__()\n"
        )
        findings = lint_python_source("m.py", source, default_rules())
        assert [f.rule for f in findings] == ["OBS001"]

    def test_obs001_exempts_regex_match_spans(self):
        source = (
            "import re\n"
            "PATTERN = re.compile(r'(?P<g>a)')\n"
            "def scan(text):\n"
            "    for match in PATTERN.finditer(text):\n"
            "        start, end = match.span('g')\n"
            "def first(text):\n"
            "    found = PATTERN.match(text)\n"
            "    other = re.search('a', text)\n"
            "    whole = PATTERN.fullmatch(text)\n"
            "    return found.span('g'), other.span(), whole.span('g')\n"
        )
        assert lint_python_source("m.py", source, default_rules()) == []

    def test_obs001_still_flags_tracer_span_beside_a_regex_match(self):
        source = (
            "import re\n"
            "def traced(tracer, text):\n"
            "    match = re.match('a', text)\n"
            "    ctx = tracer.span('reduce')\n"
            "    return match.span(), ctx\n"
            "def elsewhere(match):\n"
            "    return match.span('g')\n"
        )
        findings = lint_python_source("m.py", source, default_rules())
        assert [(f.rule, f.line) for f in findings] == [("OBS001", 4), ("OBS001", 7)]

    def test_obs001_exempts_the_obs_package(self):
        source = (
            "class Tracer:\n"
            "    def deliver(self, span_id):\n"
            "        self.end_span(span_id)\n"
        )
        assert lint_python_source("obs/messages.py", source, default_rules()) == []
        findings = lint_python_source("sim/messages.py", source, default_rules())
        assert [f.rule for f in findings] == ["OBS001"]


class TestRegistry:
    def test_self_check_passes(self):
        self_check()

    def test_every_documented_rule_registered(self):
        codes = {rule.code for rule in default_rules()}
        assert codes == {
            "DET001",
            "DET002",
            "MUT001",
            "MONEY001",
            "EXC001",
            "OBS001",
            "NET001",
            "ASY001",
            "ASY002",
            "LEDG001",
        }

    def test_resolve_call_handles_dotted_chains(self):
        ctx = FileContext.build(
            "m.py", "import datetime\n\nx = datetime.datetime.now()\n"
        )
        import ast

        call = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call))
        assert ctx.resolve_call(call) == ("datetime", "datetime", "now")
