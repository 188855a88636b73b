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


@pytest.mark.parametrize("x", [True, False])
def test_ratstr_refuses_bools(x):
    """A bool is no number of an interface: ratstr(True) wrote "1", which
    parse_rat refuses to read back."""
    with pytest.raises(TypeError, match=r"^ratstr takes an exact rational, "
                                        r"not (True|False)$"):
        ratstr(x)


@pytest.mark.parametrize("x", [2.5, 2.0, -0.0, True, False])
def test_parse_rat_refuses_floats_and_bools(x):
    """No float reaches an interface or a certificate, and a bool is no
    number of either."""
    with pytest.raises(TypeError, match=r"^expected an exact rational, not "):
        parse_rat(x)


@pytest.mark.parametrize("text", ["3/0", "-1/0", "0/0"])
def test_parse_rat_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match=r"^zero denominator in "):
        parse_rat(text)


def test_parse_rat_returns_a_fraction_as_it_is():
    x = Fraction(7, 4)
    assert parse_rat(x) is x
