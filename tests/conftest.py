"""Fixtures shared by several test modules."""

import sys

import pytest


@pytest.fixture
def digit_cap():
    """Pin CPython's int <-> str digit cap at its default, 4300, for one test.

    The cap is interpreter state that other tests may leave lifted, so a
    test that needs it pins it; the previous value comes back afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int <-> str digit cap")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)
