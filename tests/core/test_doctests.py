"""The docstring examples of the core value modules run as tests.

``testpaths`` collects only ``tests/``, so the examples in these modules'
docstrings would otherwise run nowhere.
"""

import doctest

import pytest

from repro.core import items, parties, states, trust


@pytest.mark.parametrize("module", [parties, items, states, trust], ids=lambda m: m.__name__)
def test_docstring_examples_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
