"""Classical ergodic theory of cat maps: sampled measures and their
orbits, Brin-Katok entropy estimation, and pressure on periodic-orbit sets.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from semiclab import _kernels
from semiclab._errors import NumericalSignal, check_integer


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted sample cloud in the fundamental domain."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (P, 2)")
        if len(pts) != len(w):
            raise ValueError("points and weights must align")
        if len(pts) == 0:
            raise ValueError("empty measure: no points")
        # NaN fails every comparison below, so it must be caught first
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise ValueError("points and weights must be finite")
        if w.min() < 0:
            raise ValueError("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if pts.min() < 0 or pts.max() >= 1.0:
            raise ValueError("points must lie in the fundamental domain")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


def uniform_measure(n_points, seed):
    check_integer("n_points", n_points, 1)
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(rng.uniform(0.0, 1.0, (n_points, 2)), np.full(n_points, 1.0 / n_points))


def _orbit_array(points, A, T):
    # (T+1, P, 2) forward orbit under A mod 1
    a, b, c, d = A.a, A.b, A.c, A.d
    P = len(points)
    orbits = np.empty((T + 1, P, 2))
    orbits[0] = points
    for t in range(1, T + 1):
        x, y = orbits[t - 1, :, 0], orbits[t - 1, :, 1]
        orbits[t, :, 0] = (a * x + b * y) % 1.0
        orbits[t, :, 1] = (c * x + d * y) % 1.0
    return orbits


def ks_entropy_estimate(mu, A, epsilon, T, n_bases=256):
    """Brin-Katok entropy estimate at one (epsilon, T) pair.

    Averages the local rate -(1/T) ln mu(Bowen ball) over systematically
    resampled base points; the Bowen ball uses the sup-over-time torus
    metric. The mean of local rates is the ergodic-decomposition average.
    """
    if len(mu.points) < 1000:
        raise ValueError("need at least 10^3 sample points")
    if not 0 < epsilon < 0.25:
        raise ValueError("need epsilon in (0, 1/4)")
    check_integer("T", T, 2)
    check_integer("n_bases", n_bases, 1)
    cum = np.cumsum(mu.weights)
    marks = (np.arange(n_bases) + 0.5) / n_bases
    base_idx = np.searchsorted(cum, marks).astype(np.int64)
    orbits = _orbit_array(mu.points, A, T)
    # no mass is 0: each ball holds its base, and searchsorted picks bases where cum rises
    masses = _kernels.bowen_masses(orbits, mu.weights, base_idx, epsilon)
    rates = -np.log(masses) / T
    return float(rates.mean())


def pressure_periodic_orbit(A, points, s):
    """Topological pressure of one full period of A, points as exact
    rationals: s times the negative orbit-averaged unstable expansion rate
    (constant chi for linear cat maps)."""
    if not 0 <= s <= 1:
        raise ValueError("need s in [0, 1]")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise NumericalSignal("non-periodic", "empty orbit")
    # the exact image of each point must be the next one
    for i, (x, y) in enumerate(pts):
        if ((A.a * x + A.b * y) % 1, (A.c * x + A.d * y) % 1) != pts[(i + 1) % len(pts)]:
            raise NumericalSignal("non-periodic", f"orbit breaks at step {i}")
    return -s * A.lyapunov_exponent()


def bowen_root(pressure_fn):
    """Unique root in [0,1] of a continuous decreasing pressure function.

    Bisects until the bracket is at most 1e-9 wide: 2^-30, after at most
    30 exact halvings."""

    def pressure(s):
        # every comparison with NaN is false, so bisection would go on blind
        v = pressure_fn(s)
        if np.isnan(v):
            raise NumericalSignal("nan-pressure", f"s={s}: P(s)={v}")
        return v

    p0 = pressure(0.0)
    p1 = pressure(1.0)
    if p0 < 0 or p1 > 0:
        raise NumericalSignal("no-sign-change", f"P(0)={p0}, P(1)={p1}")
    if p0 == 0.0:
        return 0.0
    if p1 == 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        v = pressure(mid)
        if v == 0.0:
            return mid
        if v > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
