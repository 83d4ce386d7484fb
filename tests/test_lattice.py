import math

import numpy as np
import pytest

from semiclab import lattice
from semiclab._errors import NumericalSignal


def brute_shell(m, n):
    r = math.isqrt(m)
    axes = range(-r, r + 1)
    if n == 2:
        return sorted((a, b) for a in axes for b in axes if a * a + b * b == m)
    return sorted(
        (a, b, c)
        for a in axes
        for b in axes
        for c in axes
        if a * a + b * b + c * c == m
    )


def test_enumerate_shell_small():
    assert lattice.enumerate_shell(1, 2).vectors == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert len(lattice.enumerate_shell(25, 2)) == 12
    assert len(lattice.enumerate_shell(3, 2)) == 0
    assert len(lattice.enumerate_shell(3, 3)) == 8


def test_enumerate_shell_matches_brute_force():
    for m in (2, 5, 10, 25, 50, 65, 325):
        assert lattice.enumerate_shell(m, 2).vectors == tuple(brute_shell(m, 2))
    for m in (1, 2, 6, 9, 14):
        assert lattice.enumerate_shell(m, 3).vectors == tuple(brute_shell(m, 3))


def test_enumerate_shell_sorted_and_indexable():
    shell = lattice.enumerate_shell(65, 2)
    assert list(shell.vectors) == sorted(shell.vectors)
    idx = shell.index()
    for i, v in enumerate(shell.vectors):
        assert idx[v] == i


def test_enumerate_shell_2d_negation_reverses_order():
    # the L4 kernel finds -k at the reversed index of a sorted 2-D shell
    for m in range(2001):
        V = np.asarray(lattice.enumerate_shell(m, 2).vectors, dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(V[::-1], -V), m


def test_enumerate_shell_validation():
    with pytest.raises(ValueError):
        lattice.enumerate_shell(-1, 2)
    with pytest.raises(ValueError):
        lattice.enumerate_shell(4, 0)


def test_count_in_ball_shell_sums():
    for R in (0.0, 1.0, 2.5, 5.0, 7.3):
        cap = math.floor(R * R + 1e-9)
        exact = sum(len(lattice.enumerate_shell(m, 2)) for m in range(cap + 1))
        assert lattice.count_in_ball(R, 2) == exact
    assert lattice.count_in_ball(10.0, 2) == 317


def test_count_in_ball_boundary_exact():
    # radius 5 includes the 12 vectors of squared length 25 exactly
    below = lattice.count_in_ball(math.nextafter(5.0, 0.0), 2)
    assert lattice.count_in_ball(5.0, 2) - below == 12
    assert lattice.count_in_ball(5.0, 2) == lattice.count_in_ball(math.nextafter(5.0, 6.0), 2)


def test_count_in_ball_dimensions():
    assert lattice.count_in_ball(1.0, 1) == 3
    assert lattice.count_in_ball(1.0, 3) == 7
    assert lattice.count_in_ball(2.0, 3) == sum(
        len(lattice.enumerate_shell(m, 3)) for m in range(5)
    )
    with pytest.raises(ValueError):
        lattice.count_in_ball(-1.0, 2)


def test_pair_degeneracy_counts():
    shell = lattice.enumerate_shell(25, 2)
    # p = k - k' for two actual shell vectors is realized at least once
    assert lattice.pair_degeneracy(shell, (3 - 4, 4 - 3)) >= 1
    assert lattice.pair_degeneracy(shell, (0, 0)) == len(shell)
    # k . (1, 2) = 5/2 has no integer solution, so no pair realizes it
    assert lattice.pair_degeneracy(shell, (1, 2)) == 0


def test_pair_degeneracy_bound_on_sample_shells():
    for m in (25, 65, 325, 1105):
        shell = lattice.enumerate_shell(m, 2)
        v = np.asarray(shell.vectors)
        diffs = (v[:, None, :] - v[None, :, :]).reshape(-1, 2)
        diffs = diffs[np.any(diffs != 0, axis=1)]
        _, counts = np.unique(diffs, axis=0, return_counts=True)
        assert counts.max() <= 2


def test_pair_degeneracy_empty_shell_signal():
    with pytest.raises(NumericalSignal, match="empty-shell"):
        lattice.pair_degeneracy(lattice.enumerate_shell(3, 2), (1, 0))


def test_arc_lattice_count_full_circle():
    assert lattice.arc_lattice_count(5.0, 0.0, 2 * math.pi * 5.0 + 1e-9) == 12
    assert lattice.arc_lattice_count(math.sqrt(3), 0.3, 1.0) == 0


def test_arc_lattice_count_tiny_arc():
    # arc centered on the direction of (3, 4)
    ang = math.atan2(4.0, 3.0)
    assert lattice.arc_lattice_count(5.0, ang, 1e-6) == 1
    assert lattice.arc_lattice_count(5.0, ang + 0.2, 1e-6) == 0


def test_arc_lattice_count_matches_angle_sweep():
    m = 325
    shell = lattice.enumerate_shell(m, 2)
    v = np.asarray(shell.vectors, dtype=float)
    ang = np.arctan2(v[:, 1], v[:, 0])
    R = math.sqrt(m)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(0.0, 2 * math.pi, 50):
        L = 2.0
        half = L / (2 * R)
        d = np.abs((ang - theta + math.pi) % (2 * math.pi) - math.pi)
        assert lattice.arc_lattice_count(R, theta, L) == int((d <= half).sum())


def test_arc_lattice_count_validation():
    with pytest.raises(NumericalSignal, match="invalid-arc"):
        lattice.arc_lattice_count(5.0, 0.0, -1.0)
