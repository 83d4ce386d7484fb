"""Eigenvalue counting and Weyl leading terms for flat tori and the round sphere."""

import math
from dataclasses import dataclass
from fractions import Fraction

from semiclab._errors import check_integer
from semiclab.lattice import count_in_ball


@dataclass(frozen=True)
class SpectrumModel:
    """tag "torus-n" (flat T^n, eigenvalues |k|^2 with shell multiplicity)
    or "sphere-2" (round S^2, eigenvalues l(l+1) with multiplicity 2l+1)."""

    tag: str
    dimension: int = 2

    def __post_init__(self):
        if self.tag not in ("torus-n", "sphere-2"):
            raise ValueError(f"unknown model tag {self.tag!r}")
        check_integer("dimension", self.dimension)
        if self.tag == "sphere-2" and self.dimension != 2:
            raise ValueError("sphere-2 is two-dimensional")
        if self.dimension < 1:
            raise ValueError("need dimension >= 1")


def counting_function(model, lam):
    """N(lam): eigenvalues (with multiplicity) whose square root is <= lam; exact."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"need finite lam >= 0: lam={lam!r}")
    if model.tag == "torus-n":
        return count_in_ball(lam, model.dimension)
    # sphere: largest L with L(L+1) <= floor(lam^2) = n, i.e. (2L+1)^2 <= 4n+1; count (L+1)^2
    L = (math.isqrt(4 * math.floor(Fraction(lam) ** 2) + 1) - 1) // 2
    return (L + 1) ** 2


def weyl_leading_term(model, lam):
    """Leading Weyl term: volume of the unit n-ball times lam^n (torus), lam^2 (sphere)."""
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"need finite lam > 0: lam={lam!r}")
    if model.tag == "torus-n":
        n = model.dimension
        unit_ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        return unit_ball * lam**n
    return lam * lam


def weyl_table(model, lams):
    """Rows (lam, exact count, leading term, remainder) for a grid of lam values."""
    rows = []
    for lam in lams:
        nc = counting_function(model, lam)
        lead = weyl_leading_term(model, lam)
        rows.append((lam, nc, lead, nc - lead))
    return rows
