"""Exact integer lattice arithmetic.

Shell enumeration, ball counting, and lattice points on circular arcs.
Membership in a shell or a ball is decided in exact integer arithmetic;
floats enter only in arc counts, which compare each shell point's angle
with the arc's center.

`enumerate_shell` builds one shell of Z^n by a per-m loop; it is the exact
reference. `shells_2d` builds every shell of Z^2 up to M in one sieve pass:
all (a, b) with a^2 + b^2 <= M in lexicographic order, stable-sorted by
a^2 + b^2 and cut at the searchsorted boundaries.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semiclab._errors import check_integer


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
    check_integer("m", m, 0)
    check_integer("n", n, 1)
    return LatticeShell(n, m, tuple(sorted(_shell_vectors(m, n))))


def shells_2d(M):
    """enumerate_shell(m, 2) for m = 0, 1, ..., M, empty shells included.

    The vectors of all shells come from one sieve pass; the LatticeShells
    are built one at a time as the returned iterator is consumed.
    """
    check_integer("M", M, 0)
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
    total = 0
    r = math.isqrt(s)
    for k in range(-r, r + 1):
        total += _count_leq(s - k * k, n - 1)
    return total


def count_in_ball(R, n):
    """Exact number of integer vectors with |v| <= R (R real, compared exactly)."""
    check_integer("n", n, 1)
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"need finite R >= 0: R={R!r}")
    # Fraction(R) is exact for float input, so the boundary |v|^2 = R^2 is
    # decided without rounding.
    s = Fraction(R) ** 2
    return _count_leq(math.floor(s), n)


def arc_counts(shell, centers, half):
    """Points of a 2-D shell within angle half of each arc center (radians).

    Returns one count per center. A point counts when its angle a passes
    |((a - center + pi) mod 2pi) - pi| <= half, its distance from the center
    the short way round the circle, so half >= pi counts the whole shell.
    That test runs only on each arc's window of candidates, taken by
    searchsorted from the sorted angles.
    """
    v = np.asarray(shell.vectors, dtype=float).reshape(-1, 2)
    ang = np.sort(np.arctan2(v[:, 1], v[:, 0]))
    s = len(ang)
    centers = np.asarray(centers, dtype=float)
    if not half >= 0:  # NaN fails every comparison below
        raise ValueError(f"need half >= 0: half={half!r}")
    if centers.ndim != 1 or not np.isfinite(centers).all():
        raise ValueError(f"need a 1-D array of finite centers: centers={centers!r}")
    # The window holds the sorted angles in (-pi, pi], tiled again at +2pi,
    # within half + 1e-9 of the center reduced to [0, 2pi]; each point's
    # nearest copy to such a center lies in one of the two tiles. The test
    # above, the tiled copies and the reduced center each differ from exact
    # arithmetic by a few ulps of |center| + 2pi, far below the 1e-9 pad, so
    # no point that passes the test lies outside its window. Two copies of
    # one point are s places apart, so a window cut to s places tests each
    # point at most once; once half >= pi it tests every point once, a full
    # scan.
    tiled = np.concatenate([ang, ang + 2 * math.pi])
    reduced = centers % (2 * math.pi)
    lo = np.searchsorted(tiled, reduced - (half + 1e-9))
    hi = np.minimum(np.searchsorted(tiled, reduced + (half + 1e-9)), lo + s)
    places = np.arange(int((hi - lo).max(initial=0)))
    counts = np.empty(len(centers), dtype=np.int64)
    # blocks of 1024 arcs keep the (arcs, window) temporaries small
    for b in range(0, len(centers), 1024):
        pos = lo[b:b + 1024, None] + places
        d = (ang[pos % s] - centers[b:b + 1024, None] + math.pi) % (2 * math.pi) - math.pi
        counts[b:b + 1024] = ((np.abs(d) <= half) & (pos < hi[b:b + 1024, None])).sum(axis=1)
    return counts
