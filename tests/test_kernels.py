"""Hot kernels against slow direct references, and the numba fallback flag."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semiclab import _kernels, catmap, dynamics, lattice, torus

A = catmap.CatMap(2, 1, 1, 1)

needs_numba = pytest.mark.skipif(not _kernels.USE_NUMBA, reason="numba path disabled")


def _bowen_inputs():
    mu = dynamics.uniform_measure(400, 5)
    orbits = dynamics._orbit_array(mu.points, A, 6)
    base_idx = np.arange(32, dtype=np.int64)
    return orbits, mu.weights, base_idx, 0.08


def test_bowen_masses_numpy_against_brute_force():
    orbits, weights, base_idx, eps = _bowen_inputs()
    got = _kernels.bowen_masses_np(orbits, weights, base_idx, eps)
    T1, P, _ = orbits.shape
    for i, bi in enumerate(base_idx[:8]):
        acc = 0.0
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
                acc += weights[p]
        assert abs(got[i] - acc) < 1e-14
    # the base point always carries its own weight
    assert got.min() >= weights.min()


@needs_numba
def test_bowen_masses_variants_agree():
    orbits, weights, base_idx, eps = _bowen_inputs()
    a = _kernels.bowen_masses_np(orbits, weights, base_idx, eps)
    b = _kernels.bowen_masses_nb(orbits, weights, base_idx, eps)
    assert np.abs(a - b).max() < 1e-13


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
        got = _kernels.l4_moment_sums(C)
        X = (np.abs(C) ** 2).sum(axis=1)
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
    assert _kernels.l4_moment_sums(c)[0] == pytest.approx(0.25**2, rel=1e-15)


def test_husimi_grid_numpy_against_coherent_bank():
    state = catmap.scarred_state(A, 18).amplitudes
    G = 12
    got = _kernels.husimi_grid_np(state, G)
    raw = np.empty((G, G))
    for a in range(G):
        for b in range(G):
            coh = catmap._coherent_array(18, (a + 0.5) / G, (b + 0.5) / G)
            raw[a, b] = abs(np.vdot(coh, state)) ** 2
    oracle = raw / (raw.sum() / G**2)
    assert np.abs(got - oracle).max() < 1e-12


@needs_numba
def test_husimi_grid_variants_agree():
    state = catmap.coherent_state(150, 0.37, 0.61).amplitudes
    a = _kernels.husimi_grid_np(state, 16)
    b = _kernels.husimi_grid_nb(state, 16)
    assert np.abs(a - b).max() < 1e-10


def test_fallback_flag_subprocess(tmp_path):
    # a fresh interpreter with the flag set must select the numpy path and
    # reproduce the same numbers
    script = r"""
import json
import numpy as np
from semiclab import _kernels, catmap, dynamics

A = catmap.CatMap(2, 1, 1, 1)
mu = dynamics.uniform_measure(400, 5)
orbits = dynamics._orbit_array(mu.points, A, 6)
bowen = _kernels.bowen_masses(orbits, mu.weights, np.arange(32), 0.08)

rng = np.random.default_rng(12)
C = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
l4 = _kernels.l4_moment_sums(C)

H = _kernels.husimi_grid(catmap.coherent_state(60, 0.25, 0.5).amplitudes, 8)
print(json.dumps({
    "use_numba": _kernels.USE_NUMBA,
    "bowen": bowen.tolist(),
    "l4": l4.tolist(),
    "husimi": H.ravel().tolist(),
}))
"""
    env = dict(os.environ, SEMICLAB_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["use_numba"] is False

    orbits, weights, base_idx, eps = _bowen_inputs()
    bowen = _kernels.bowen_masses(orbits, weights, base_idx, eps)
    assert np.abs(np.array(out["bowen"]) - bowen).max() < 1e-13
    rng = np.random.default_rng(12)
    C = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    l4 = _kernels.l4_moment_sums(C)
    assert np.abs(np.array(out["l4"]) - l4).max() < 1e-14
    H = _kernels.husimi_grid(catmap.coherent_state(60, 0.25, 0.5).amplitudes, 8)
    assert np.abs(np.array(out["husimi"]) - H.ravel()).max() < 1e-10


def test_cli_runs_without_numba(tmp_path):
    env = dict(os.environ, SEMICLAB_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-m", "semiclab.cli", "run", "--experiment", "pressure-bowen",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pressure-bowen: PASS" in proc.stdout
