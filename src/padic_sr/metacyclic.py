"""Covers with a nontrivial prime-to-p action: deformation-datum signatures
at the branch points of the degree-m quotient cover, the faithfulness of the
Z/m action on the cyclic p-Sylow Z/p^n, and the moduli-field/tameness report
that `padic-sr signature` prints.

The quotient cover is z^m = (x - x_1)^a1 (x - x_2)^a2 (x - x_3)^a3 with
a_1 + a_2 + a_3 = 0 (mod m); points with a_i = 0 (mod m) are the wild branch
points of the full cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NoSolution, NotFaithful
from .jsonutil import ratstr
from .tower import check_prime


@dataclass(frozen=True)
class MetacyclicSpec:
    p: int
    n: int
    m: int
    exponents: tuple  # (a_1, a_2, a_3), taken mod m

    def __post_init__(self):
        check_prime(self.p)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 2:
            raise NoSolution("m must be >= 2; m = 1 is the cyclic case")
        if len(self.exponents) != 3:
            raise NoSolution("exactly three branch points are required")
        object.__setattr__(self, "exponents",
                           tuple(a % self.m for a in self.exponents))
        if all(a == 0 for a in self.exponents):
            raise NoSolution("not all a_i may be 0 (mod m)")
        if sum(self.exponents) % self.m != 0:
            raise NoSolution("a_1 + a_2 + a_3 must be 0 (mod m)")
        _check_faithful(self.p, self.n, self.m)

    def to_json(self):
        return {"p": self.p, "n": self.n, "m": self.m,
                "exponents": list(self.exponents)}


@dataclass(frozen=True)
class SignatureSolution:
    # per branch point: (h_i, m_i, sigma_i); sigma_i = 0 at wild points
    points: tuple
    flipped: bool  # whether the inverse character a_i -> m - a_i was taken

    def sigmas(self):
        return tuple(pt[2] for pt in self.points)

    def to_json(self):
        return {
            "points": [{"h": h, "m": mi, "sigma": ratstr(sig)}
                       for h, mi, sig in self.points],
            "flipped": self.flipped,
        }


def _solve_one(m: int, a: int):
    """(h_i, m_i, sigma_i) for one branch point of the degree-m cover."""
    if a % m == 0:
        return (0, 1, Fraction(0))  # wild point
    g = gcd(m, a)
    mi = m // g
    # h_i = (a_i / g) mod m_i, the unique representative with sigma in (0, 1)
    h = (a // g) % mi
    if h == 0:
        raise NoSolution(f"no representative with sigma in (0, 1) for "
                         f"a_i = {a}, m = {m}")
    return (h, mi, Fraction(h, mi))


def signature_solver(spec: MetacyclicSpec) -> SignatureSolution:
    """The invariants (h_i, m_i, sigma_i) of the deformation data at the
    branch points, normalized so the primitive-tail sigmas sum to 1."""
    m = spec.m
    pts = tuple(_solve_one(m, a) for a in spec.exponents)
    total = sum(pt[2] for pt in pts)
    flipped = False
    if total != 1:
        # the inverse character replaces each sigma by 1 - sigma at the
        # primitive points; with three primitive points the sum 2 becomes 1
        pts = tuple(_solve_one(m, (m - a) % m) for a in spec.exponents)
        flipped = True
        total = sum(pt[2] for pt in pts)
    if total != 1:
        raise NoSolution(
            f"primitive sigmas sum to {total} under both characters"
        )
    return SignatureSolution(pts, flipped)


def _check_faithful(p: int, n: int, m: int):
    """m must divide p - 1.  m is m_G = |N_G(P)/Z_G(P)|, the order of the
    action of the normalizer of the p-Sylow P = Z/p^n on P, and it divides
    p - 1: P is abelian, so P lies in Z_G(P); P is a Sylow subgroup of
    N_G(P), so [N_G(P) : P] is prime to p, and so is its quotient
    N_G(P)/Z_G(P); and that quotient embeds in Aut(P), whose prime-to-p
    part has order p - 1.  So p = 2 admits no m >= 2."""
    if (p - 1) % m:
        raise NotFaithful(
            f"m = {m} does not divide p - 1 = {p - 1}, the order of the "
            f"prime-to-p part of Aut(Z/{p}^{n})"
        )


def moduli_and_tails_note(spec: MetacyclicSpec) -> dict:
    """Report for m_G > 1: the signature, which is computed (its sigmas
    sum to 1, the vanishing-cycles count of the star of primitive tails,
    or signature_solver raises), and under "cited" the source paper's
    conclusions for that case, which are not: every tail is primitive, the
    field of moduli lies in K_n, the stable model is defined over a tame
    extension of K_n, and hence the upper ramification groups G^u over K_0
    vanish for u >= n."""
    sol = signature_solver(spec)
    n, p = spec.n, spec.p
    return {
        "spec": spec.to_json(),
        "signature": sol.to_json(),
        "cited": {
            "result": "Obus, Fields of moduli of three-point G-covers with "
                      "cyclic p-Sylow, I (arXiv:0911.1103): the case "
                      "m_G > 1",
            "tails": "all tails are primitive; no new or inseparable tails",
            "moduli_field": f"contained in K_{n} = K_0(zeta_{{{p}^{n}}})",
            "stable_model_field": f"a tame extension of K_{n}",
            "ramification": "the upper ramification groups G^u over K_0 "
                            f"vanish for u >= {n}",
        },
    }
