"""Exact integer lattice arithmetic.

Shell enumeration, ball counting, pair-degeneracy counts, and lattice
points on circular arcs. All membership decisions use exact integer
arithmetic; floats only enter through arc endpoint directions, never
through point membership on the circle itself.

`enumerate_shell` builds one shell of Z^n by a per-m loop; it is the exact
reference. `shells_2d` builds every shell of Z^2 up to M in one sieve pass:
all (a, b) with a^2 + b^2 <= M in lexicographic order, stable-sorted by
a^2 + b^2 and cut at the searchsorted boundaries.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semiclab._errors import NumericalSignal


@dataclass(frozen=True)
class LatticeShell:
    """All integer n-vectors of squared length exactly m, sorted lexicographically."""

    dimension: int
    radius_squared: int
    vectors: tuple

    def __len__(self):
        return len(self.vectors)

    def index(self):
        """Map vector -> position in the sorted tuple."""
        return {v: i for i, v in enumerate(self.vectors)}


def _shell_vectors(m, n):
    if n == 1:
        r = math.isqrt(m)
        if r * r == m:
            return [(r,)] if r == 0 else [(-r,), (r,)]
        return []
    out = []
    r = math.isqrt(m)
    for k in range(-r, r + 1):
        rem = m - k * k
        for tail in _shell_vectors(rem, n - 1):
            out.append((k,) + tail)
    return out


def enumerate_shell(m, n):
    """Exhaustive shell of squared radius m in Z^n, lexicographically sorted."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    return LatticeShell(n, m, tuple(sorted(_shell_vectors(m, n))))


def shells_2d(M):
    """enumerate_shell(m, 2) for m = 0, 1, ..., M, empty shells included.

    The vectors of all shells come from one sieve pass; the LatticeShells
    are built one at a time as the returned iterator is consumed.
    """
    if M < 0:
        raise ValueError("need M >= 0")
    r = math.isqrt(M)
    axis = np.arange(-r, r + 1, dtype=np.int64)
    norms = axis[:, None] ** 2 + axis[None, :] ** 2
    # np.nonzero walks the grid in row-major, i.e. lexicographic, order and
    # the stable sort keeps that order inside each shell
    i, j = np.nonzero(norms <= M)
    order = np.argsort(norms[i, j], kind="stable")
    i, j = i[order], j[order]
    vectors = np.stack([axis[i], axis[j]], axis=1)
    cuts = np.searchsorted(norms[i, j], np.arange(M + 2)).tolist()
    return (
        LatticeShell(2, m, tuple(map(tuple, vectors[cuts[m]:cuts[m + 1]].tolist())))
        for m in range(M + 1)
    )


def _count_leq(s, n):
    # integer vectors with |v|^2 <= s, exact
    if s < 0:
        return 0
    if n == 1:
        return 2 * math.isqrt(s) + 1
    if n == 2:
        total = 0
        r = math.isqrt(s)
        for k in range(-r, r + 1):
            total += 2 * math.isqrt(s - k * k) + 1
        return total
    total = 0
    r = math.isqrt(s)
    for k in range(-r, r + 1):
        total += _count_leq(s - k * k, n - 1)
    return total


def count_in_ball(R, n):
    """Exact number of integer vectors with |v| <= R (R real, compared exactly)."""
    if R < 0:
        raise ValueError("need R >= 0")
    # Fraction(R) is exact for float input, so the boundary |v|^2 = R^2 is
    # decided without rounding.
    s = Fraction(R) ** 2
    return _count_leq(math.floor(s), n)


def pair_degeneracy(shell, p):
    """Number of shell vectors k such that k - p is also on the shell."""
    if len(shell) == 0:
        raise NumericalSignal("empty-shell", "pair_degeneracy needs a nonempty shell")
    members = set(shell.vectors)
    p = tuple(p)
    return sum(1 for k in shell.vectors if tuple(a - b for a, b in zip(k, p)) in members)


def arc_lattice_count(radius, center_angle, arc_length):
    """Integer points on the circle of the given radius within a closed arc.

    The radius must square to an integer (else there are no lattice points
    and the count is 0). Membership in the arc is decided by cross products
    against the endpoint directions, not by per-point angles.
    """
    if arc_length <= 0:
        raise NumericalSignal("invalid-arc", "arc_length must be positive")
    if radius <= 0:
        raise ValueError("need radius > 0")
    r2 = radius * radius
    m = round(r2)
    if abs(r2 - m) > 1e-9 * max(1.0, r2):
        return 0
    shell = enumerate_shell(m, 2)
    if len(shell) == 0:
        return 0
    span = arc_length / radius
    if span >= 2 * math.pi:
        return len(shell)
    half = span / 2.0
    ca, sa = math.cos(center_angle - half), math.sin(center_angle - half)
    cb, sb = math.cos(center_angle + half), math.sin(center_angle + half)
    count = 0
    for k1, k2 in shell.vectors:
        # cross(e1, k) >= 0 and cross(k, e2) >= 0 puts k in the CCW wedge
        c1 = ca * k2 - sa * k1
        c2 = k1 * sb - k2 * cb
        if span <= math.pi:
            inside = c1 >= 0.0 and c2 >= 0.0
        else:
            # complement of the short wedge from e2 to e1
            inside = not (c1 < 0.0 and c2 < 0.0)
        if inside:
            count += 1
    return count
