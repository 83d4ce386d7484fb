"""Hot kernels against slow direct references."""

import ast
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from semiclab import _kernels, catmap, dynamics, experiments, lattice, sphere, torus

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

    # cell edges: eps = 31/256 gives M = 8 cells of width 1/8, so the edges
    # k/8 and every point below are dyadic and all distances exact. Points
    # on the edges; pairs at sup-distance exactly eps across an edge, across
    # the seam in x and in y; bases in the four corner cells, each within
    # eps of the other three across the seams
    eps = 31 / 256
    u = 1 / 256
    edges = np.array([
        [0.375, 0.5], [0.5, 0.625], [0.0, 0.125], [0.125, 0.0],
        [0.375 - u, 0.5], [0.375 - u + eps, 0.5],
        [0.5, 0.75 - u], [0.5, 0.75 - u + eps],
        [u, 0.3], [1.0 + u - eps, 0.3],
        [0.7, u], [0.7, 1.0 + u - eps],
        [u, u], [1.0 - u, u], [u, 1.0 - u], [1.0 - u, 1.0 - u],
    ])
    x, y = rng.uniform(0.0, 1.0, (2, 300))
    pts = np.vstack([edges, np.column_stack([x, y]), np.column_stack([x, y]) * 0.05])
    weights = rng.uniform(0.5, 1.5, len(pts))
    weights /= weights.sum()
    base_idx = np.arange(len(edges) + 30)
    for eps_, T in itertools.product((eps, 0.4, 0.6), (0, 2)):
        # at 0.4 and 0.6, M = 2 and 1: the 3 x 3 neighbouring cells repeat
        orbits = dynamics._orbit_array(pts, A, T)
        got = _kernels.bowen_masses(orbits, weights, base_idx, eps_)
        for i, bi in enumerate(base_idx):
            ref = _bowen_brute_force(orbits, weights, bi, eps_)
            assert abs(got[i] - ref) < 1e-14, ("edges", eps_, T, i)
        if eps_ == eps and T == 0:
            for i in (4, 6, 8, 10):
                pair = weights[i : i + 2].sum()
                assert got[i] >= pair and got[i + 1] >= pair, i
            assert (got[12:16] >= weights[12:16].sum()).all()
        if eps_ == 0.6:
            # no two points are more than 1/2 apart: every ball holds them all
            assert np.allclose(got, 1.0, rtol=1e-14, atol=0.0), T


def test_bowen_masses_scan_each_distinct_base_once():
    # repeated indices and distinct indices of one point share one scan,
    # and every base still gets the mass of a scan of its own
    n_fix, eps, T = 200, 0.05, 6
    pts = np.vstack([np.zeros((n_fix, 2)), dynamics.uniform_measure(400, 5).points])
    weights = np.random.default_rng(2).uniform(0.5, 1.5, len(pts))
    weights /= weights.sum()
    orbits = dynamics._orbit_array(pts, A, T)
    rng = np.random.default_rng(3)
    base_idx = np.concatenate([
        np.zeros(40, dtype=np.int64),                  # one index, repeated
        np.arange(n_fix),                              # one point, many indices
        rng.integers(n_fix, len(pts), 60),             # repeats among the rest
    ])
    rng.shuffle(base_idx)
    got = _kernels.bowen_masses(orbits, weights, base_idx, eps)
    for i, bi in enumerate(base_idx):
        one = _kernels.bowen_masses(orbits, weights, base_idx[i : i + 1], eps)
        assert got[i] == one[0], (i, bi)
    assert _kernels.bowen_masses(orbits, weights, base_idx[:0], eps).shape == (0,)


def test_bowen_masses_peak_memory():
    # the entropy-oracle uniform scan; the candidates stay per base, never
    # one flat array over all bases
    mu = dynamics.uniform_measure(100_000, 314)
    orbits = dynamics._orbit_array(mu.points, A, 12)
    base_idx = np.searchsorted(np.cumsum(mu.weights), (np.arange(256) + 0.5) / 256)
    tracemalloc.start()
    try:
        _kernels.bowen_masses(orbits, mu.weights, base_idx, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, peak


def test_l4_batch_peak_memory():
    # one batch of the L4 sweep on its largest shell, m = 5525 with s = 48:
    # the 1000 x 48 complex fill C (0.77 MB) and at most two float arrays of
    # its shape (0.38 MB each) at once; measured at 1.54 MB. The warm-up call
    # keeps the process's one-off allocations (0.76 MB more) out of the peak.
    shell = lattice.enumerate_shell(5525, 2)
    assert len(shell) == 48
    torus.l4_batch(shell, 1000, (42, 5525))
    tracemalloc.start()
    try:
        torus.l4_batch(shell, 1000, (42, 5525))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6, peak


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


def _coherent_reference(N, x0, xi0, squeeze):
    # the theta sum over whole periods: 2W + 1 copies of the Gaussian on the
    # N sites, with W two periods beyond the exp(-40) reach
    u = np.arange(N) / N - x0
    W = int(math.ceil(math.sqrt(40.0 / (math.pi * N * squeeze)))) + 2
    psi = np.zeros(N, dtype=complex)
    for w in range(-W, W + 1):
        v = u - w
        psi += np.exp(-math.pi * N * squeeze * v * v + 2j * math.pi * N * xi0 * v)
    return psi / np.linalg.norm(psi)


def test_coherent_state_against_period_sum():
    # folding the Gaussian window onto Z/N, against the sum over periods; the
    # window is longer than N up to N = 18 and shorter from N = 101 on
    rng = np.random.default_rng(12)
    for N, squeeze in itertools.product((1, 2, 3, 18, 101, 504, 2898), (0.5, 1.0, 2.0)):
        for x0, xi0 in rng.random((8, 2)):
            got = catmap.coherent_state(N, x0, xi0, squeeze).amplitudes
            ref = _coherent_reference(N, x0, xi0, squeeze)
            assert np.abs(got - ref).max() < 1e-12, (N, squeeze, x0, xi0)


def test_ginibre_fill_is_the_sum_of_two_draws():
    # the real parts take the first float draw of the shape and the
    # imaginary parts the second, so the fill is bitwise the sum of two
    # draws, and at (n, s) one (2, n, s) draw split into halves
    D = 31 ** 2
    rng = np.random.default_rng(5)
    want = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    got = _kernels._ginibre(np.random.default_rng(5), (D, D))
    assert got.shape == (D, D) and got.tobytes() == want.tobytes()
    for s in (1, 12, 504):
        rng = np.random.default_rng(s)
        want = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        got = _kernels._ginibre(np.random.default_rng(s), s)
        assert got.shape == (s,) and got.tobytes() == want.tobytes(), s
    for n, s in ((1, 4), (60, 12), (7, 128)):
        rng = np.random.default_rng(n * s)
        want = np.empty((n, s), dtype=complex)
        want.real, want.imag = rng.standard_normal((2, n, s))
        got = _kernels._ginibre(np.random.default_rng(n * s), (n, s))
        assert got.shape == (n, s) and got.tobytes() == want.tobytes(), (n, s)


def test_standard_normal_is_drawn_only_in_ginibre():
    # _ginibre is the one complex Gaussian fill: no other function of the
    # package names standard_normal, called or not
    src = pathlib.Path(_kernels.__file__).parent
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "standard_normal"
                    or isinstance(child, ast.Name) and child.id == "standard_normal"):
                found.append(scope)
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.name,))
    # the real and the imaginary half of the fill
    assert found == [("_kernels.py", "_ginibre")] * 2, found


def test_haar_unitary_scales_the_fill_bitwise():
    # the in-place division of the fill by sqrt(2) is bitwise the division of
    # the sum of two draws, so the Haar draw is unchanged by the fill
    for d in (41, 81, 161):
        rng, ref = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            G = _kernels._ginibre(rng, (d, d))
            G /= math.sqrt(2)
            want = (ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))) / math.sqrt(2)
            assert G.tobytes() == want.tobytes(), d
    # the last draw at d = 161 is the 20th on its stream
    rng = np.random.default_rng(161)
    for _ in range(20):
        U = _kernels._haar_unitary(rng, 161)
    Q, R = np.linalg.qr(want)
    phases = (np.diagonal(R) / np.abs(np.diagonal(R))).conj()[None, :]
    assert U.tobytes() == (Q * phases).tobytes()


def test_haar_unitary_is_the_one_draw():
    # unitary, and the torus bases and the sphere trials take their columns from it
    shell = lattice.enumerate_shell(65, 2)
    U = _kernels._haar_unitary(np.random.default_rng(3), len(shell))
    assert np.abs(U.conj().T @ U - np.eye(len(shell))).max() < 1e-14
    basis = torus.random_shell_basis(shell, 3)
    assert np.array_equal(np.stack([b.amplitudes for b in basis], axis=1), U / (2 * math.pi))
    l, a = 5, [-1.0 / 3.0, 0.0, 1.0]
    rec = sphere.concentration_experiment(l, a, 3, 3)
    diag = sphere.band_compression(sphere.zonal_from_polynomial(a, 2), l).diagonal().real
    rng = np.random.default_rng(3)
    want = []
    for _ in range(3):
        U11 = _kernels._haar_unitary(rng, 2 * l + 1)
        want.append(float(np.abs((np.abs(U11) ** 2 * diag[:, None]).sum(axis=0)).max()))
    assert rec["sup_deviations"] == want


def _husimi_bank(N, G, squeeze):
    # conjugated coherent states at the cell centers, cell (a, b) in row a*G + b
    return np.array([
        _coherent_reference(N, (a + 0.5) / G, (b + 0.5) / G, squeeze)
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
