"""Prime-to-p signatures: solver oracles, exhaustive invariance for m <= 12,
group-structure validation, and the moduli/tameness report."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from padic_sr.errors import NoSolution, NotFaithful
from padic_sr.metacyclic import (
    MetacyclicSpec,
    moduli_and_tails_note,
    signature_solver,
)


def _p_for(m):
    """A prime p with a faithful order-m cyclic action on Z/p (n = 1), or a
    suitable n, for test specs."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53, 61, 73):
        if (p - 1) % m == 0:
            return p, 1
    raise AssertionError(f"no test prime for m = {m}")


def test_solver_oracles():
    p, n = _p_for(2)
    sol = signature_solver(MetacyclicSpec(p, n, 2, (1, 1, 0)))
    assert sol.sigmas() == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    p, n = _p_for(3)
    sol = signature_solver(MetacyclicSpec(p, n, 3, (1, 2, 0)))
    assert sol.sigmas() == (Fraction(1, 3), Fraction(2, 3), Fraction(0))


@pytest.mark.parametrize("p,n", [(4, 1), (1, 1), (9, 2), (5, 0)])
def test_spec_refuses_non_prime_p_and_n_below_1(p, n):
    with pytest.raises(ValueError):
        MetacyclicSpec(p, n, 2, (1, 1, 0))


@pytest.mark.parametrize("p,n", [(4, 1), (1, 1), (0, 2), (9, 2), (5, 0),
                                 (3, -1)])
def test_psolvable_quotient_refuses_non_prime_p_and_n_below_1(p, n):
    """No p-solvable quotient Z/4^1 x| Z/3 or Z/1^1 x| Z/3: the spec of
    Z/p^n x| Z/3 refuses a non-prime p and n < 1."""
    with pytest.raises(ValueError):
        MetacyclicSpec(p, n, 3, (1, 2, 0))


def test_all_zero_rejected():
    with pytest.raises(NoSolution):
        MetacyclicSpec(5, 1, 2, (0, 0, 0))
    with pytest.raises(NoSolution):
        MetacyclicSpec(5, 1, 2, (2, 4, 6))  # all = 0 mod m


def test_bad_sum_rejected():
    with pytest.raises(NoSolution):
        MetacyclicSpec(5, 1, 4, (1, 1, 1))


def _admissible(m):
    for a in itertools.product(range(m), repeat=3):
        if all(x == 0 for x in a):
            continue
        if sum(a) % m != 0:
            continue
        yield a


@pytest.mark.parametrize("m", range(2, 13))
def test_exhaustive_solver_m_up_to_12(m):
    p, n = _p_for(m)
    for a in _admissible(m):
        spec = MetacyclicSpec(p, n, m, a)
        sol = signature_solver(spec)
        sigmas = sol.sigmas()
        # existence, the defining congruence, and the (0,1) window
        for (h, mi, sig), ai in zip(sol.points, spec.exponents):
            eff = (m - ai) % m if sol.flipped else ai
            if eff % m == 0:
                assert sig == 0 and mi == 1
            else:
                g = gcd(m, eff)
                assert mi == m // g
                assert 0 < sig < 1
                assert (h - eff // g) % mi == 0
        # the normalization: primitive sigmas sum to exactly 1
        assert sum(sigmas) == 1
        # permutation invariance
        perm = (a[2], a[0], a[1])
        psol = signature_solver(MetacyclicSpec(p, n, m, perm))
        assert psol.sigmas() == (sigmas[2], sigmas[0], sigmas[1])
        # representative invariance under a_i -> a_i + m
        shifted = tuple(x + m for x in a)
        assert signature_solver(
            MetacyclicSpec(p, n, m, shifted)).sigmas() == sigmas


def test_uniqueness_of_window_representative():
    """For each congruence class mod m_i there is exactly one h with
    sigma = h/m_i in (0, 1) in the canonical range."""
    for m in range(2, 13):
        for a in range(1, m):
            g = gcd(m, a)
            mi = m // g
            window = [h for h in range(1, mi)
                      if (h - a // g) % mi == 0 and 0 < Fraction(h, mi) < 1]
            assert len(window) == 1


def test_spec_checks_faithfulness():
    """m = m_G must divide p - 1 (metacyclic._check_faithful): a divisor of
    |Aut(Z/p^n)| = p^(n-1)(p-1) that p divides is refused, and p = 2
    admits no m at all."""
    for p, n, m in [(5, 1, 4), (7, 2, 6), (13, 3, 12), (3, 4, 2)]:
        MetacyclicSpec(p, n, m, (1, m - 1, 0))
    for p, n, m in [(5, 1, 3),  # 3 does not divide 4
                    (2, 4, 4), (2, 4, 8), (2, 2, 2),  # p = 2 has no m
                    (3, 2, 3), (3, 2, 6), (5, 3, 10)]:  # p divides m
        with pytest.raises(NotFaithful, match=rf"^m = {m} does not divide "
                                              rf"p - 1 = {p - 1}, "):
            MetacyclicSpec(p, n, m, (1, m - 1, 0))


def test_moduli_and_tails_note():
    rep = moduli_and_tails_note(MetacyclicSpec(5, 2, 2, (1, 1, 0)))
    # no field that holds by construction: the star of primitive tails
    # passes its checks exactly when the sigmas sum to 1
    assert set(rep) == {"spec", "signature", "cited"}
    assert sum(Fraction(pt["sigma"]) for pt in rep["signature"]["points"]) \
        == 1
    cited = rep["cited"]
    assert "arXiv:0911.1103" in cited["result"]
    assert "K_2" in cited["moduli_field"]
    assert "tame extension" in cited["stable_model_field"]
    assert cited["ramification"].endswith("vanish for u >= 2")
    assert not {"conductor", "vanishes_at_n"} & set(rep)
    # one wild point: the template has exactly two primitive tails
    assert sum(1 for pt in rep["signature"]["points"]
               if pt["sigma"] != "0") == 2
