"""Exact-rational JSON helpers: ratstr writes "num/den", parse_rat reads it."""

from fractions import Fraction

import pytest

from padic_sr.jsonutil import parse_rat, ratstr


@pytest.mark.parametrize("x,text", [
    (0, "0"),
    (7, "7"),
    (-12, "-12"),
    (Fraction(-6, 4), "-3/2"),
    (Fraction(10, 5), "2"),
    ("6/4", "3/2"),
    ("-9/3", "-3"),
    (" 5 ", "5"),
])
def test_ratstr(x, text):
    assert ratstr(x) == text
    assert parse_rat(text) == Fraction(x)


@pytest.mark.parametrize("x", [0.5, 2.0, -0.0])
def test_ratstr_refuses_floats(x):
    with pytest.raises(TypeError):
        ratstr(x)
