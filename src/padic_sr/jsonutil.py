"""Exact-rational JSON helpers.

All numeric payloads in this package's interfaces are strings "num/den" (or
"num" when the denominator is 1); floats never appear in any interface.
"""

from fractions import Fraction


def ratstr(x) -> str:
    """The string "num/den" (or "num") of an exact rational.  An int or a
    Fraction is read as it is, anything else (a string such as "6/4") goes
    through Fraction; a float is refused, as no float may reach an
    interface, and so is a bool, which parse_rat would not read back."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"ratstr takes an exact rational, not {x!r}")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s) -> Fraction:
    """The exact rational of an int, a Fraction or a string such as "6/4":
    the one reader of rationals, for interfaces and the certification path
    alike.  A Fraction is returned as it is, first.  A float or a bool is
    refused with TypeError, as no float may reach an interface or a
    certificate and a bool is no number of one; a zero denominator raises
    ValueError, as any other malformed string does."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (bool, float)):
        raise TypeError(f"expected an exact rational, not {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
