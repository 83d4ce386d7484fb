import math

import numpy as np
import pytest

from semiclab import catmap, experiments, lattice, spectra
from semiclab._errors import NumericalSignal
from slow_references import pair_degeneracy


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
    with pytest.raises(ValueError):
        lattice.shells_2d(-1)


def test_shells_2d_matches_enumerate_shell():
    # the sieve against the per-m reference: same vectors, same order
    shells = list(lattice.shells_2d(2000))
    assert [s.radius_squared for s in shells] == list(range(2001))
    for m, shell in enumerate(shells):
        assert shell == lattice.enumerate_shell(m, 2), m
        assert list(shell.vectors) == sorted(shell.vectors), m
        V = np.asarray(shell.vectors, dtype=np.int64).reshape(-1, 2)
        assert np.array_equal(V[::-1], -V), m
    for M in (0, 1, 2, 3, 24, 25, 26, 1999):
        assert list(lattice.shells_2d(M)) == shells[: M + 1], M


def test_jarnik_pair_scan_against_pair_degeneracy():
    report = experiments.run_experiment(
        "lattice-jarnik", {"max_m": 300, "radii_squared": [25], "arcs_per_radius": 10}
    )
    slow = 0
    for m in range(1, 301):
        shell = lattice.enumerate_shell(m, 2)
        diffs = {(a - c, b - d) for a, b in shell.vectors for c, d in shell.vectors}
        for p in diffs - {(0, 0)}:
            slow = max(slow, pair_degeneracy(shell, p))
    assert report["outputs"]["max_pair_degeneracy"] == slow


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
    for R in (-1.0, math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"need finite R >= 0: R={R!r}"):
            lattice.count_in_ball(R, 2)


def test_pair_degeneracy_counts():
    shell = lattice.enumerate_shell(25, 2)
    # p = k - k' for two actual shell vectors is realized at least once
    assert pair_degeneracy(shell, (3 - 4, 4 - 3)) >= 1
    assert pair_degeneracy(shell, (0, 0)) == len(shell)
    # k . (1, 2) = 5/2 has no integer solution, so no pair realizes it
    assert pair_degeneracy(shell, (1, 2)) == 0


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
        pair_degeneracy(lattice.enumerate_shell(3, 2), (1, 0))


def test_arc_lattice_count_full_circle():
    # an arc of length l on the circle of radius R has half-angle l / R / 2
    shell = lattice.enumerate_shell(25, 2)
    assert lattice.arc_counts(shell, [0.0], (2 * math.pi * 5.0 + 1e-9) / 5.0 / 2)[0] == 12
    empty = lattice.enumerate_shell(3, 2)
    assert lattice.arc_counts(empty, [0.3], 1.0 / math.sqrt(3) / 2)[0] == 0


def test_arc_lattice_count_tiny_arc():
    # arc centered on the direction of (3, 4)
    shell = lattice.enumerate_shell(25, 2)
    ang = math.atan2(4.0, 3.0)
    assert lattice.arc_counts(shell, [ang], 1e-6 / 5.0 / 2)[0] == 1
    assert lattice.arc_counts(shell, [ang + 0.2], 1e-6 / 5.0 / 2)[0] == 0


def cross_product_arc_count(shell, center_angle, span):
    # slow reference: wedge membership by cross products against the two
    # endpoint directions, no per-point angles
    if span >= 2 * math.pi:
        return len(shell)
    ca, sa = math.cos(center_angle - span / 2), math.sin(center_angle - span / 2)
    cb, sb = math.cos(center_angle + span / 2), math.sin(center_angle + span / 2)
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
        count += inside
    return count


def test_arc_lattice_count_matches_angle_sweep():
    rng = np.random.default_rng(3)
    for m in (325, 5525):
        shell = lattice.enumerate_shell(m, 2)
        thetas = rng.uniform(0.0, 2 * math.pi, 50)
        for span in (0.05, 0.3, 1.0, 3.0, 3.5, 5.0, 6.2, 7.0):
            counts = lattice.arc_counts(shell, thetas, span / 2)
            assert counts.shape == thetas.shape
            for theta, got in zip(thetas, counts):
                want = cross_product_arc_count(shell, theta, span)
                assert got == want, (m, span, theta)
    # more than one block of 1024 arcs
    shell = lattice.enumerate_shell(325, 2)
    thetas = rng.uniform(0.0, 2 * math.pi, 2500)
    counts = lattice.arc_counts(shell, thetas, 0.25)
    assert [cross_product_arc_count(shell, t, 0.5) for t in thetas] == counts.tolist()


def test_arc_counts_with_an_end_on_a_lattice_point():
    # center = half puts the clockwise end at angle 0.0, where (R, 0) lies:
    # the cross product there is exactly 0 and, as pi - half is exact for
    # these halves, the angle test reads exactly half, so the closed arc
    # counts the point (half = pi/2 is left out: its other end, the float pi,
    # misses (-R, 0) by the rounding of pi, which the two tests see apart)
    for m in (1, 25, 625, 4225):
        shell = lattice.enumerate_shell(m, 2)
        for half in (0.5, 1.0, 2.0, 3.0, math.pi - 1e-6):
            got = int(lattice.arc_counts(shell, [half], half)[0])
            assert got == cross_product_arc_count(shell, half, 2 * half), (m, half)
            below = lattice.arc_counts(shell, [half], np.nextafter(half, 0.0))[0]
            assert below == got - 1, (m, half)


def test_arc_counts_on_arc_ends_match_full_scan():
    # arcs whose ends sit on the angle of a shell point, wrapped into
    # [0, 2pi), so many of them cross 0 and 2pi, and the same arcs unwrapped
    # and turned three times round
    for m in (1, 25, 5525):
        shell = lattice.enumerate_shell(m, 2)
        v = np.asarray(shell.vectors, dtype=float)
        ang = np.arctan2(v[:, 1], v[:, 0])
        for half in (1e-6, 0.3, math.pi / 2, math.pi - 1e-6, np.nextafter(math.pi, 0.0)):
            ends = np.concatenate([ang + half, ang - half])
            thetas = np.concatenate([ends % (2 * math.pi), ends, ends + 6 * math.pi])
            counts = lattice.arc_counts(shell, thetas, half)
            for theta, got in zip(thetas, counts):
                # the documented test on every point, one at a time
                want = sum(
                    bool(abs((a - theta + math.pi) % (2 * math.pi) - math.pi) <= half)
                    for a in ang
                )
                assert got == want, (m, half, theta)
                # the geometric count, up to arc ends moved by 1e-9
                lo = cross_product_arc_count(shell, theta, 2 * half - 2e-9)
                hi = cross_product_arc_count(shell, theta, 2 * half + 2e-9)
                assert lo <= got <= hi, (m, half, theta)


def test_integer_arguments_checked_where_they_enter():
    # a float used to pass the determinant check and fail later as no-period,
    # fail inside numpy, or recurse until RecursionError; True counted as n = 1
    A = catmap.CatMap(2, 1, 1, 1)
    cases = [
        (lambda: catmap.CatMap(0.5, 0, 0, 2), "a=0.5"),
        (lambda: catmap.QuantizedCatMap(A, 55.0), "N=55.0"),
        (lambda: lattice.enumerate_shell(5, 2.5), "n=2.5"),
        (lambda: lattice.enumerate_shell(5.0, 2), "m=5.0"),
        (lambda: lattice.count_in_ball(3.0, 2.5), "n=2.5"),
        (lambda: lattice.count_in_ball(3.0, True), "n=True"),
        (lambda: spectra.SpectrumModel("torus-n", 2.5), "dimension=2.5"),
    ]
    for call, named in cases:
        with pytest.raises(ValueError, match=f"must be an integer: {named}"):
            call()
    # numpy integers are integers
    assert lattice.count_in_ball(3.0, np.int64(2)) == lattice.count_in_ball(3.0, 2) == 29
    assert catmap.QuantizedCatMap(catmap.CatMap(*np.int64([2, 1, 1, 1])), np.int32(55)).N == 55
    assert len(lattice.enumerate_shell(np.int64(25), np.int64(2))) == 12
