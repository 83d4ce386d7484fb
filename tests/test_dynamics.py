"""Sampled measures, entropy estimation, and pressure roots."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semiclab import _kernels, catmap, dynamics, experiments
from semiclab._errors import NumericalSignal

A = catmap.CatMap(2, 1, 1, 1)
CHI = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def test_empirical_measure_validation():
    pts = np.array([[0.1, 0.2], [0.5, 0.9]])
    dynamics.EmpiricalMeasure(pts, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="align"):
        dynamics.EmpiricalMeasure(pts, np.array([1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        dynamics.EmpiricalMeasure(pts, np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        dynamics.EmpiricalMeasure(pts, np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="fundamental domain"):
        dynamics.EmpiricalMeasure(np.array([[0.1, 1.0]]), np.array([1.0]))
    # one column would broadcast into both coordinates of the orbit array
    for width in (1, 3):
        with pytest.raises(ValueError, match="shape"):
            dynamics.EmpiricalMeasure(np.full((2, width), 0.25), np.array([0.5, 0.5]))
    # NaN fails every range comparison
    with pytest.raises(ValueError, match="finite"):
        dynamics.EmpiricalMeasure(pts, np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        dynamics.EmpiricalMeasure(np.array([[0.1, np.nan], [0.5, 0.9]]), np.array([0.5, 0.5]))


def test_uniform_measure_seeded():
    mu = dynamics.uniform_measure(50, 9)
    nu = dynamics.uniform_measure(50, 9)
    assert np.array_equal(mu.points, nu.points)
    assert np.all(mu.weights == 1.0 / 50)
    assert mu.points.shape == (50, 2)


def test_empty_measure_rejected():
    with pytest.raises(ValueError, match="n_points >= 1"):
        dynamics.uniform_measure(0, 9)
    with pytest.raises(ValueError, match="empty measure"):
        dynamics.EmpiricalMeasure(np.zeros((0, 2)), np.zeros(0))


def test_orbit_array_periodicity():
    # the period-2 rational orbit closes up exactly in floating point
    pts = np.array([[0.8, 0.6], [0.2, 0.4]])
    orbits = dynamics._orbit_array(pts, A, 2)
    assert orbits.shape == (3, 2, 2)
    assert np.abs(orbits[2] - orbits[0]).max() < 1e-12
    assert np.abs(orbits[1, 0] - np.array([0.2, 0.4])).max() < 1e-12


def test_ks_entropy_validation():
    mu = dynamics.uniform_measure(2000, 1)
    with pytest.raises(ValueError, match="10\\^3"):
        dynamics.ks_entropy_estimate(dynamics.uniform_measure(100, 1), A, 0.05, 12)
    with pytest.raises(ValueError, match="epsilon"):
        dynamics.ks_entropy_estimate(mu, A, 0.3, 12)
    with pytest.raises(ValueError, match="epsilon"):
        dynamics.ks_entropy_estimate(mu, A, 0.0, 12)
    with pytest.raises(ValueError, match="T >= 2"):
        dynamics.ks_entropy_estimate(mu, A, 0.05, 1)
    for n_bases in (0, -1):
        with pytest.raises(ValueError, match="n_bases"):
            dynamics.ks_entropy_estimate(mu, A, 0.05, 12, n_bases=n_bases)


def test_ks_entropy_regressions():
    # frozen estimates at moderate sample sizes; the Lebesgue estimate sits
    # near chi and the half-atomic mixture near chi/2 (both biased low at
    # this sample count, tightened only in the full experiment)
    u = dynamics.ks_entropy_estimate(dynamics.uniform_measure(20000, 17), A, 0.05, 12)
    assert abs(u - 0.8250649955301719) < 1e-9
    assert 0.75 * CHI < u < 1.05 * CHI

    rng = np.random.default_rng(17)
    n = 5000
    pts = np.vstack([np.zeros((1, 2)), rng.uniform(0.0, 1.0, (n, 2))])
    w = np.concatenate([[0.5], np.full(n, 0.5 / n)])
    mix = dynamics.ks_entropy_estimate(dynamics.EmpiricalMeasure(pts, w), A, 0.05, 12)
    assert abs(mix - 0.4126453146890052) < 1e-9
    assert 0.75 * CHI / 2 < mix < 1.05 * CHI / 2


def test_ks_entropy_atomic_measure_is_zero():
    mu = dynamics.EmpiricalMeasure(np.zeros((1000, 2)), np.full(1000, 1e-3))
    assert abs(dynamics.ks_entropy_estimate(mu, A, 0.05, 12)) < 1e-12


def _half_zero_measure():
    # every other point carries no weight, so a base drawn by the cumulative
    # weights must skip it
    w = np.zeros(2000)
    w[1::2] = 1.0 / 1000
    return dynamics.EmpiricalMeasure(dynamics.uniform_measure(2000, 5).points, w)


@pytest.mark.parametrize("make", [
    lambda: dynamics.uniform_measure(20000, 17),
    lambda: experiments.mixture_measure(5000, 17),
    lambda: dynamics.EmpiricalMeasure(np.zeros((1000, 2)), np.full(1000, 1e-3)),
    _half_zero_measure,
], ids=["uniform", "mixture", "fixed-point", "half-zero"])
def test_every_bowen_ball_holds_its_base(monkeypatch, make):
    # why ks_entropy_estimate takes the log of every mass unguarded: each
    # resampled base has positive weight and lies in its own ball
    seen = []
    bowen_masses = _kernels.bowen_masses

    def spy(orbits, weights, base_idx, eps):
        seen.append((weights[base_idx], bowen_masses(orbits, weights, base_idx, eps)))
        return seen[-1][1]

    monkeypatch.setattr(_kernels, "bowen_masses", spy)
    dynamics.ks_entropy_estimate(make(), A, 0.05, 12)
    ((base_weights, masses),) = seen
    assert len(masses) == 256
    assert (base_weights > 0).all()
    assert (masses >= base_weights).all()


def test_check_10_uniform_balls_hold_only_their_base(monkeypatch):
    # a diagnosis, not a check: at entropy-oracle's default config almost
    # every uniform Bowen ball holds only its base point (254 of 256 when
    # measured), so the uniform estimate reads about ln(P) / T, which lies
    # near chi only at P = 10^5. An estimator mended to measure entropy
    # fails this test on purpose.
    cfg = experiments.REGISTRY["entropy-oracle"].defaults
    P, T = cfg["samples"], cfg["horizon"]
    masses = []
    bowen_masses = _kernels.bowen_masses

    def spy(orbits, weights, base_idx, eps):
        masses.append(bowen_masses(orbits, weights, base_idx, eps))
        return masses[-1]

    monkeypatch.setattr(_kernels, "bowen_masses", spy)
    est = dynamics.ks_entropy_estimate(
        dynamics.uniform_measure(P, cfg["seed"]), A, cfg["epsilon"], T)
    (m,) = masses
    alone = int((np.rint(m * P) == 1).sum())
    assert alone >= 250 and len(m) == 256, alone
    assert abs(est - math.log(P) / T) <= 0.01 * CHI, (est, math.log(P) / T)


def test_pressure_fixed_point():
    fixed = ((Fraction(0), Fraction(0)),)
    assert dynamics.pressure_periodic_orbit(A, fixed, 0.0) == 0.0
    assert abs(dynamics.pressure_periodic_orbit(A, fixed, 0.5) - (-0.5 * CHI)) < 1e-14
    assert abs(dynamics.pressure_periodic_orbit(A, fixed, 1.0) - (-CHI)) < 1e-14
    with pytest.raises(ValueError, match="s in"):
        dynamics.pressure_periodic_orbit(A, fixed, 1.5)


def test_pressure_period_two_orbit():
    orbit = ((Fraction(4, 5), Fraction(3, 5)), (Fraction(1, 5), Fraction(2, 5)))
    assert abs(dynamics.pressure_periodic_orbit(A, orbit, 1.0) - (-CHI)) < 1e-14


def test_pressure_rejects_non_orbits():
    bad = ((Fraction(1, 2), Fraction(0)),)
    with pytest.raises(NumericalSignal, match="non-periodic"):
        dynamics.pressure_periodic_orbit(A, bad, 0.5)
    with pytest.raises(NumericalSignal, match="non-periodic"):
        dynamics.pressure_periodic_orbit(A, (), 0.5)


def test_bowen_root():
    assert dynamics.bowen_root(lambda s: -s) == 0.0
    assert dynamics.bowen_root(lambda s: 1.0 - s) == 1.0
    assert abs(dynamics.bowen_root(lambda s: 0.5 - s) - 0.5) <= 1e-9
    assert abs(dynamics.bowen_root(lambda s: math.cos(s) - s) - 0.7390851332151607) <= 1e-9
    root = dynamics.bowen_root(lambda s: math.exp(-s) - 0.5 - 0.1 * s)
    assert abs(root - 0.5828802719974318) <= 1e-9
    with pytest.raises(NumericalSignal, match="no-sign-change"):
        dynamics.bowen_root(lambda s: s - 2.0)
    # every comparison with NaN is false, so a NaN once bisected to 4.66e-10
    with pytest.raises(NumericalSignal, match=r"nan-pressure: s=0\.0: P\(s\)=nan"):
        dynamics.bowen_root(lambda s: float("nan"))
    with pytest.raises(NumericalSignal, match=r"nan-pressure: s=1\.0:"):
        dynamics.bowen_root(lambda s: float("nan") if s == 1.0 else 1.0)
    # a NaN at one midpoint only, after two clean halvings
    with pytest.raises(NumericalSignal, match=r"nan-pressure: s=0\.375:"):
        dynamics.bowen_root(lambda s: float("nan") if s == 0.375 else 0.3 - s)


def test_bowen_root_of_orbit_pressure():
    fixed = ((Fraction(0), Fraction(0)),)

    def shifted(s):
        return dynamics.pressure_periodic_orbit(A, fixed, s) + 0.5 * CHI

    assert abs(dynamics.bowen_root(shifted) - 0.5) <= 1e-9
