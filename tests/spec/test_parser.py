"""Unit tests for the spec-language parser."""

import pytest

from repro.errors import SpecSyntaxError
from repro.spec import ClauseKind, PrincipalKind, parse

GOOD = """
problem "demo"
principal consumer C
principal producer P
trusted T
exchange via T {
    C pays $10.00
    P gives d
}
"""


class TestHeader:
    def test_quoted_problem_name(self):
        assert parse(GOOD).name == "demo"

    def test_ident_problem_name(self):
        assert parse("problem demo1").name == "demo1"

    def test_missing_header_defaults(self):
        headerless = "principal consumer C" + GOOD.split("principal consumer C")[1]
        assert parse(headerless).name == "unnamed"

    def test_bad_header(self):
        with pytest.raises(SpecSyntaxError, match="problem name"):
            parse("problem {")


class TestPrincipalAndTrusted:
    def test_kinds_parsed(self):
        spec = parse(GOOD)
        kinds = {d.name: d.kind for d in spec.principals}
        assert kinds == {"C": PrincipalKind.CONSUMER, "P": PrincipalKind.PRODUCER}

    def test_broker_kind(self):
        spec = parse("principal broker B")
        assert spec.principals[0].kind is PrincipalKind.BROKER

    def test_bad_kind_rejected(self):
        with pytest.raises(SpecSyntaxError, match="consumer"):
            parse("principal wizard W")

    def test_missing_name_rejected(self):
        with pytest.raises(SpecSyntaxError, match="principal name"):
            parse("principal consumer {")

    def test_amount_in_an_error_reads_as_dollars(self):
        with pytest.raises(
            SpecSyntaxError, match=r"expected a principal name, found amount \$12\.00$"
        ):
            parse("principal broker $12")

    def test_trusted_decl(self):
        spec = parse(GOOD)
        assert [d.name for d in spec.trusted] == ["T"]


class TestExchange:
    def test_clauses(self):
        spec = parse(GOOD)
        (exchange,) = spec.exchanges
        assert exchange.via == "T"
        pays, gives = exchange.clauses
        assert pays.kind is ClauseKind.PAYS and pays.amount_cents == 1000
        assert gives.kind is ClauseKind.GIVES and gives.item == "d"

    def test_tags(self):
        src = GOOD.replace("pays $10.00", "pays $10.00 tag retail").replace(
            "gives d", "gives d tag original"
        )
        pays, gives = parse(src).exchanges[0].clauses
        assert pays.tag == "retail"
        assert gives.tag == "original"

    def test_three_member_exchange_allowed_by_parser(self):
        src = """
        principal consumer A
        principal consumer B
        principal producer P
        trusted T
        exchange via T { A pays $1 B pays $2 P gives d }
        """
        assert len(parse(src).exchanges[0].clauses) == 3

    def test_single_clause_rejected(self):
        with pytest.raises(SpecSyntaxError, match="at least two"):
            parse("trusted T exchange via T { C pays $1 }")

    def test_missing_brace_rejected(self):
        with pytest.raises(SpecSyntaxError, match="'{'"):
            parse("exchange via T C pays $1")

    def test_unterminated_block_rejected(self):
        with pytest.raises(SpecSyntaxError, match="unterminated"):
            parse("exchange via T { C pays $1 P gives d")

    def test_bad_verb_rejected(self):
        with pytest.raises(SpecSyntaxError, match="pays.*gives|'pays' or 'gives'"):
            parse("exchange via T { C sends $1 P gives d }")

    def test_pays_requires_amount(self):
        with pytest.raises(SpecSyntaxError, match="amount"):
            parse("exchange via T { C pays d P gives d }")

    def test_gives_requires_item(self):
        with pytest.raises(SpecSyntaxError, match="item"):
            parse("exchange via T { C gives $1 P gives d }")


class TestPriorityAndTrust:
    def test_priority(self):
        src = GOOD + "priority C via T\n"
        (priority,) = parse(src).priorities
        assert priority.principal == "C"
        assert priority.via == "T"

    def test_trust(self):
        src = GOOD + "trust C -> P\n"
        (trust,) = parse(src).trusts
        assert (trust.truster, trust.trustee) == ("C", "P")

    def test_trust_requires_arrow(self):
        with pytest.raises(SpecSyntaxError, match="'->'"):
            parse("trust C P")

    def test_unknown_statement_rejected(self):
        with pytest.raises(SpecSyntaxError, match="statement keyword"):
            parse("banana split")


class TestSpecFileHelpers:
    def test_name_sets(self):
        spec = parse(GOOD)
        assert spec.principal_names() == {"C", "P"}
        assert spec.trusted_names() == {"T"}
