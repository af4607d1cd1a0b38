"""Unit tests for repro.core.parties."""

import pytest

from repro.core.parties import (
    Party,
    Role,
    broker,
    consumer,
    producer,
    require_principal,
    require_trusted,
    trusted,
)
from repro.errors import ModelError


class TestRole:
    def test_principal_roles(self):
        assert Role.CONSUMER.is_principal
        assert Role.BROKER.is_principal
        assert Role.PRODUCER.is_principal

    def test_trusted_is_not_principal(self):
        assert not Role.TRUSTED.is_principal


class TestParty:
    def test_constructors_assign_roles(self):
        assert consumer("c").role is Role.CONSUMER
        assert broker("b").role is Role.BROKER
        assert producer("p").role is Role.PRODUCER
        assert trusted("t").role is Role.TRUSTED

    def test_principal_and_trusted_flags(self):
        assert consumer("c").is_principal
        assert not consumer("c").is_trusted
        assert trusted("t").is_trusted
        assert not trusted("t").is_principal

    def test_equality_is_name_and_role(self):
        assert consumer("x") == consumer("x")
        assert consumer("x") != broker("x")
        assert consumer("x") != consumer("y")

    def test_hashable_and_usable_as_dict_key(self):
        d = {consumer("c"): 1, trusted("t"): 2}
        assert d[consumer("c")] == 1

    def test_ordering_is_deterministic(self):
        parties = sorted([trusted("t"), consumer("a"), broker("m")])
        assert [p.name for p in parties] == ["a", "m", "t"]

    def test_str_is_name(self):
        assert str(producer("src")) == "src"

    @pytest.mark.parametrize("bad", ["", "1abc", "has space", "semi;colon", "-lead"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ModelError):
            Party(bad, Role.CONSUMER)

    def test_a_name_ending_in_newlines_is_rejected(self):
        # The whole name must match: ``$`` alone would accept a final "\n".
        for bad in ("abc\n", "abc\n\n"):
            with pytest.raises(ModelError, match="invalid party name"):
                Party(bad, Role.CONSUMER)

    @pytest.mark.parametrize("good", ["a", "Broker1", "t-1", "x_y", "Z9"])
    def test_valid_names_accepted(self, good):
        assert Party(good, Role.BROKER).name == good


class TestRequireHelpers:
    def test_require_principal_passes_through(self):
        c = consumer("c")
        assert require_principal(c, "ctx") is c

    def test_require_principal_rejects_trusted(self):
        with pytest.raises(ModelError, match="trusted component"):
            require_principal(trusted("t"), "ctx")

    def test_require_trusted_passes_through(self):
        t = trusted("t")
        assert require_trusted(t, "ctx") is t

    def test_require_trusted_rejects_principal(self):
        with pytest.raises(ModelError, match="principal"):
            require_trusted(broker("b"), "ctx")
