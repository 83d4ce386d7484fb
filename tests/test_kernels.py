"""Hot kernels against slow direct references."""

import itertools
import math

import numpy as np
import pytest

from semiclab import _kernels, catmap, dynamics, experiments, lattice, torus

A = catmap.CatMap(2, 1, 1, 1)


def _bowen_measures():
    # the three measures entropy-oracle scans: uniform, an atom, and a mixture
    n_fix = 1000
    return {
        "uniform": dynamics.uniform_measure(400, 5),
        "fixed-point": dynamics.EmpiricalMeasure(
            np.zeros((n_fix, 2)), np.full(n_fix, 1.0 / n_fix)
        ),
        "mixture": experiments.mixture_measure(400, 5),
    }


def _bowen_brute_force(orbits, weights, bi, eps):
    T1, P, _ = orbits.shape
    inball = []
    for p in range(P):
        ok = True
        for t in range(T1):
            for c in range(2):
                d = abs(orbits[t, p, c] - orbits[t, bi, c])
                if min(d, 1.0 - d) > eps:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            inball.append(weights[p])
    return math.fsum(inball)


def test_bowen_masses_numpy_against_brute_force():
    eps, n_bases = 0.08, 32
    marks = (np.arange(n_bases) + 0.5) / n_bases
    # at T = 2 balls hold uniform points besides the base, some of them only
    # through the wrap-around near the fixed point at 0
    for (name, mu), T in itertools.product(_bowen_measures().items(), (2, 6)):
        orbits = dynamics._orbit_array(mu.points, A, T)
        # the systematic resampling of ks_entropy_estimate
        base_idx = np.searchsorted(np.cumsum(mu.weights), marks)
        got = _kernels.bowen_masses(orbits, mu.weights, base_idx, eps)
        for i, bi in enumerate(base_idx):
            ref = _bowen_brute_force(orbits, mu.weights, bi, eps)
            assert abs(got[i] - ref) < 1e-14, (name, T, i)
        # the base point always carries its own weight
        assert (got >= mu.weights[base_idx]).all(), (name, T)

    # across the seam: bases within eps of x = 0 and of x = 1, points on the
    # far side of it, and points at x-distance exactly eps (all dyadic, so
    # the distances are exact and the strip must hold its end points)
    eps = 0.0625
    seam = np.array([
        [0.03125, 0.5], [0.96875, 0.5], [0.09375, 0.5],
        [0.984375, 0.25], [0.046875, 0.25], [0.921875, 0.25],
        [0.0, 0.75], [0.9375, 0.75], [0.5, 0.75],
    ])
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.1, 0.1, 400) % 1.0
    pts = np.vstack([seam, np.column_stack([x, rng.uniform(0.0, 1.0, 400)])])
    weights = rng.uniform(0.5, 1.5, len(pts))
    weights /= weights.sum()
    base_idx = np.arange(len(seam) + 40)
    for T in (0, 1, 2):
        orbits = dynamics._orbit_array(pts, A, T)
        got = _kernels.bowen_masses(orbits, weights, base_idx, eps)
        for i, bi in enumerate(base_idx):
            ref = _bowen_brute_force(orbits, weights, bi, eps)
            assert abs(got[i] - ref) < 1e-14, ("seam", T, i)
        if T == 0:
            # the first base holds the wrapped point and the one at distance eps
            assert got[0] >= weights[:3].sum()


def _l4_states(shell, seed):
    # random states, one real psi (c_{-k} = conj c_k) and one on a diameter
    s = len(shell)
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((4, s)) + 1j * rng.standard_normal((4, s))
    C[2] = (C[2] + C[2, ::-1].conj()) / 2
    C[3] = 0.0
    C[3, 0], C[3, -1] = 0.6 - 0.3j, 0.2 + 0.5j
    return C / (2.0 * np.pi * np.linalg.norm(C, axis=1, keepdims=True))


def test_l4_moment_sums_against_density_moments():
    # slow reference: sum of |density_moment(p)|^2 over every difference p
    for m in (1, 2, 25, 325, 5525):
        shell = lattice.enumerate_shell(m, 2)
        V = np.asarray(shell.vectors)
        diffs = {tuple(d) for d in (V[:, None, :] - V[None, :, :]).reshape(-1, 2)}
        C = _l4_states(shell, m)
        got, X = _kernels.l4_moment_sums(C)
        assert np.allclose(X, (np.abs(C) ** 2).sum(axis=1), rtol=1e-14, atol=0)
        for b in range(len(C)):
            psi = torus.TorusEigenfunction(shell, C[b])
            direct = sum(abs(torus.density_moment(psi, p)) ** 2 for p in diffs)
            assert abs(got[b] - direct) <= 1e-14 * direct, (m, b)
            assert got[b] <= 3.0 * X[b] ** 2
        assert abs((C[2] * C[2, ::-1]).sum()) == pytest.approx(X[2], rel=1e-14)
        # a diameter: psi = a e^{ikx} + b e^{-ikx} has sum |M(p)|^2 = X^2 + 2|ab|^2
        a2, b2 = abs(C[3, 0]) ** 2, abs(C[3, -1]) ** 2
        assert got[3] == pytest.approx(X[3] ** 2 + 2 * a2 * b2, rel=1e-14)


def test_l4_moment_sums_zero_shell():
    # on m = 0 the only vector is k = 0 = -k, and |psi|^4 is constant
    c = np.array([[0.3 - 0.4j]])
    S, X = _kernels.l4_moment_sums(c)
    assert S[0] == pytest.approx(0.25**2, rel=1e-15)
    assert X[0] == pytest.approx(0.25, rel=1e-15)


def _husimi_bank(N, G, squeeze):
    # conjugated coherent states at the cell centers, cell (a, b) in row a*G + b
    return np.array([
        catmap._coherent_array(N, (a + 0.5) / G, (b + 0.5) / G, squeeze)
        for a in range(G)
        for b in range(G)
    ]).conj()


def _husimi_oracle(bank, states, G):
    raw = (np.abs(bank @ states) ** 2).T.reshape(-1, G, G)
    return raw / (raw.sum(axis=(1, 2), keepdims=True) / G**2)


def test_husimi_grid_numpy_against_coherent_bank():
    # the window of 2K + 1 sites is longer than N at N = 2 and 18 and shorter
    # at N = 101 and 504; the scarred state at N = 18 rides along. G = 13
    # puts the row centers N x_a off the integers.
    G = 13
    rng = np.random.default_rng(5)
    for N, squeeze in itertools.product((2, 18, 101, 504), (0.5, 1.0, 2.0)):
        bank = _husimi_bank(N, G, squeeze)
        states = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
        states /= np.linalg.norm(states, axis=0)
        if N == 18:
            states[:, 0] = catmap.scarred_state(A, 18).amplitudes
        oracle = _husimi_oracle(bank, states, G)
        for j in range(states.shape[1]):
            got = _kernels.husimi_grid(states[:, j], G, squeeze)
            assert np.abs(got - oracle[j]).max() < 1e-12, (N, squeeze, j)
        # a state on one site n0 sees each Gaussian term alone: every cell
        # whose term at n0 is above the exp(-40) cut-off, with the other
        # periodic images negligible beside it, agrees to roundoff relative
        # to its own size, however far in the tail it lies
        oracle = _husimi_oracle(bank, np.eye(N), G)
        c = N * (np.arange(G) + 0.5) / G
        for n0 in range(N):
            got = _kernels.husimi_grid(np.eye(N)[n0].astype(complex), G, squeeze)
            dist = np.abs((n0 - c + N / 2) % N - N / 2)
            near, far = (np.exp(-math.pi * squeeze * d**2 / N) for d in (dist, N - dist))
            kept = (near >= math.exp(-40.0)) & (far < 1e-12 * near)
            rel = np.abs(got - oracle[n0])[kept] / oracle[n0][kept]
            assert rel.max(initial=0.0) < 1e-10, (N, squeeze, n0)
