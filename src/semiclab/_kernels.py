"""Hot numerical kernels.

Bowen-ball masses and Husimi grids have a numba fast path and a pure-numpy
fallback. Set SEMICLAB_NO_NUMBA=1 to force the numpy implementations
(results are identical up to floating-point roundoff). Each of these two
exposes _np / _nb variants for direct testing; the public names dispatch on
the flag at call time. The batched L4 moment sums have one numpy
implementation, O(s) per state.
"""

import math
import os

import numpy as np

USE_NUMBA = os.environ.get("SEMICLAB_NO_NUMBA", "") != "1"
if USE_NUMBA:
    try:
        from numba import njit, prange
    except ImportError:
        USE_NUMBA = False


# ---------------------------------------------------------------- Bowen balls

def bowen_masses_np(orbits, weights, base_idx, eps):
    """Mass of each Bowen sup-ball: orbits (T+1, P, 2), bases index into P."""
    out = np.empty(len(base_idx))
    for i, bi in enumerate(base_idx):
        ref = orbits[:, bi, :]
        d = np.abs(orbits - ref[:, None, :])
        d = np.minimum(d, 1.0 - d)
        chb = np.maximum(d[..., 0], d[..., 1])
        inball = (chb <= eps).all(axis=0)
        out[i] = weights[inball].sum()
    return out


if USE_NUMBA:

    @njit(cache=True, parallel=True)
    def _bowen_masses_jit(orbits, weights, base_idx, eps):
        T1, P, _ = orbits.shape
        B = base_idx.shape[0]
        out = np.zeros(B)
        for i in prange(B):
            bi = base_idx[i]
            acc = 0.0
            for p in range(P):
                ok = True
                for t in range(T1):
                    dx = abs(orbits[t, p, 0] - orbits[t, bi, 0])
                    if dx > 0.5:
                        dx = 1.0 - dx
                    if dx > eps:
                        ok = False
                        break
                    dy = abs(orbits[t, p, 1] - orbits[t, bi, 1])
                    if dy > 0.5:
                        dy = 1.0 - dy
                    if dy > eps:
                        ok = False
                        break
                if ok:
                    acc += weights[p]
            out[i] = acc
        return out

    def bowen_masses_nb(orbits, weights, base_idx, eps):
        return _bowen_masses_jit(
            np.ascontiguousarray(orbits),
            np.ascontiguousarray(weights),
            np.ascontiguousarray(base_idx, dtype=np.int64),
            float(eps),
        )


def bowen_masses(orbits, weights, base_idx, eps):
    if USE_NUMBA:
        return bowen_masses_nb(orbits, weights, base_idx, eps)
    return bowen_masses_np(orbits, weights, base_idx, eps)


# ------------------------------------------------- batched L4 moment sums

def l4_moment_sums(C):
    """For each state row of C: sum over difference vectors p of |M(p)|^2.

    M(p) = sum_{k - k' = p} c_k conj(c_k') is the p-th Fourier coefficient of
    |psi|^2, so the result times (2pi)^2 is the integral of |psi|^4 over T^2.
    C is (states, s), with columns aligned to a lexicographically sorted 2-D
    shell, on which -k sits at the reversed index s - 1 - i.

    The sum runs over quadruples with k1 + k4 = k2 + k3: pairs of chords of
    the circle |k|^2 = m with the same midpoint. Such chords are the same
    chord or are both diameters (Zygmund, Studia Math. 50, 1974), so with
    X = sum |c_k|^2, Y = sum c_k c_{-k}, Z = sum |c_k|^2 |c_{-k}|^2 and
    F = sum |c_k|^4, inclusion-exclusion gives

        sum_p |M(p)|^2 = 2 X^2 - F + |Y|^2 - 2 Z  (+ |c_0|^4 on the shell m = 0).

    |Y| <= X and F, Z >= 0 bound this by 3 X^2, which is where the L4 bound
    3 / (2pi)^2 for normalized states comes from. The identity needs n = 2.
    """
    A = np.abs(C) ** 2
    X = A.sum(axis=1)
    Y = (C * C[:, ::-1]).sum(axis=1)
    Z = (A * A[:, ::-1]).sum(axis=1)
    F = (A**2).sum(axis=1)
    out = 2.0 * X**2 - F + np.abs(Y) ** 2 - 2.0 * Z
    s = C.shape[1]
    if s % 2:
        # k = -k only for the zero vector: add back the triple overlap
        out += A[:, s // 2] ** 2
    return out


# ------------------------------------------------------------- Husimi grids

def _theta_width(N, squeeze):
    # periodization window: dropped terms are below exp(-40) ~ 1e-18
    return int(math.ceil(math.sqrt(40.0 / (math.pi * N * squeeze)))) + 2


def husimi_grid_np(state, G, squeeze=1.0):
    """|<coherent(x_a, xi_b) | state>|^2 on cell centers; rows index x."""
    N = len(state)
    W = _theta_width(N, squeeze)
    ws = np.arange(-W, W + 1)
    xs = (np.arange(G) + 0.5) / G
    j = np.arange(N)
    H = np.empty((G, G))
    for a in range(G):
        t = j / N - xs[a]
        R = np.exp(-math.pi * N * squeeze * (t[:, None] - ws[None, :]) ** 2)
        P1 = np.exp(2j * math.pi * N * np.outer(xs, t))          # (G, N)
        P2 = np.exp(-2j * math.pi * N * np.outer(xs, ws))        # (G, 2W+1)
        Q = R @ P2.T                                             # (N, G)
        coh_conj = P1.conj() * Q.T.conj()                        # (G, N)
        ovl = coh_conj @ state
        norms2 = (np.abs(Q) ** 2).sum(axis=0)
        H[a] = (np.abs(ovl) ** 2) / norms2
    return H / (H.sum() / G**2)


if USE_NUMBA:

    @njit(cache=True, parallel=True)
    def _husimi_grid_jit(state, G, squeeze, W):
        # coh(a,b,j) factors as (global phase) * E1[b,j] * sum_k amp[j,k] E2[b,k];
        # the global phase has modulus one, so it drops out of |ovl|^2 / nrm2
        N = state.shape[0]
        K = 2 * W + 1
        E1c = np.empty((G, N), dtype=np.complex128)
        for b in range(G):
            xib = (b + 0.5) / G
            for j in range(N):
                ph = 2.0 * math.pi * xib * j
                E1c[b, j] = complex(math.cos(ph), -math.sin(ph))
        E2 = np.empty((G, K), dtype=np.complex128)
        for b in range(G):
            xib = (b + 0.5) / G
            for k in range(K):
                ph = 2.0 * math.pi * N * xib * (k - W)
                E2[b, k] = complex(math.cos(ph), -math.sin(ph))
        H = np.empty((G, G))
        for a in prange(G):
            xa = (a + 0.5) / G
            amp = np.empty((N, K))
            for j in range(N):
                t = j / N - xa
                for k in range(K):
                    v = t - (k - W)
                    amp[j, k] = math.exp(-math.pi * N * squeeze * v * v)
            for b in range(G):
                ovl = 0.0 + 0.0j
                nrm2 = 0.0
                for j in range(N):
                    inner = 0.0 + 0.0j
                    for k in range(K):
                        inner += amp[j, k] * E2[b, k]
                    nrm2 += inner.real * inner.real + inner.imag * inner.imag
                    ovl += E1c[b, j] * np.conj(inner) * state[j]
                H[a, b] = (ovl.real * ovl.real + ovl.imag * ovl.imag) / nrm2
        return H

    def husimi_grid_nb(state, G, squeeze=1.0):
        N = len(state)
        W = _theta_width(N, squeeze)
        H = _husimi_grid_jit(
            np.ascontiguousarray(state, dtype=np.complex128), G, float(squeeze), W
        )
        return H / (H.sum() / G**2)


def husimi_grid(state, G, squeeze=1.0):
    if USE_NUMBA:
        return husimi_grid_nb(state, G, squeeze)
    return husimi_grid_np(state, G, squeeze)
