"""Hot numerical kernels, one numpy implementation each.

`bowen_masses` takes Bowen-ball candidates from a sorted x-strip and filters
them step by step, `l4_moment_sums` evaluates the same-midpoint chord
identity in O(s) per state, and `husimi_grid` forms coherent-state overlaps
on the unwrapped Gaussian window of each grid row: the integers n with
|n - N x_a| <= K, K = ceil(sqrt(40 N / (pi squeeze))), so every dropped term
is below exp(-40). Overlaps are one (G, L) @ (L, G) product; the squared
coherent-state norm is sum_k e^{2 pi i N k xi} sum_n g(n) g(n + kN), whose
k != 0 terms carry the aliasing of windows longer than N.
"""

import math

import numpy as np

# Read only by perfbench's environment fingerprint; there is no numba backend.
USE_NUMBA = False


# ---------------------------------------------------------------- Bowen balls

def _within(p, q, eps):
    # rows of p within torus sup-distance eps of the point q
    d = np.abs(p - q)
    return (np.minimum(d, 1.0 - d) <= eps).all(axis=1)


def bowen_masses(orbits, weights, base_idx, eps):
    """Mass of each Bowen sup-ball: orbits (T+1, P, 2), bases index into P.

    The t = 0 test runs only on the x-strip |x - x_b| <= eps of the points
    sorted by x, wrapping across the seam and padded so that it holds every
    point the test keeps. Its survivors, in ascending index order, are then
    tested step by step: at step t only the points that stayed within eps
    at every earlier step are tested, so the mass is summed exactly as over
    a full in-ball mask.
    """
    order = np.argsort(orbits[0, :, 0], kind="stable")
    first = orbits[0, order]
    xs = orbits[0, order, 0]
    reach = eps + 1e-9      # the pad dwarfs the rounding of |x - x_b|
    out = np.empty(len(base_idx))
    for i, bi in enumerate(base_idx):
        # the strip and its images across the seam; np.unique restores
        # ascending index order (and drops repeats once eps >= 1/2)
        lo = orbits[0, bi, 0] - reach + np.array([-1.0, 0.0, 1.0])
        cuts = np.searchsorted(xs, np.concatenate([lo, lo + 2.0 * reach]))
        cand = np.unique(np.concatenate([
            order[a:b][_within(first[a:b], orbits[0, bi], eps)]
            for a, b in zip(cuts[:3], cuts[3:])
        ]))
        for t in range(1, orbits.shape[0]):
            cand = cand[_within(orbits[t, cand], orbits[t, bi], eps)]
        out[i] = weights[cand].sum()
    return out


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

# Gaussian terms exp(-pi N squeeze u^2) below exp(-_CUTOFF) are dropped.
_CUTOFF = 40.0


def _gauss_reach(N, squeeze):
    # |u| on the torus beyond which exp(-pi N squeeze u^2) < exp(-_CUTOFF)
    return math.sqrt(_CUTOFF / (math.pi * N * squeeze))


def _theta_width(N, squeeze):
    # periodization window of a coherent state on the N sites j / N
    return int(math.ceil(_gauss_reach(N, squeeze))) + 2


def husimi_grid(state, G, squeeze=1.0):
    """|<coherent(x_a, xi_b) | state>|^2 on cell centers; rows index x.

    Row a sees only the sites n with |n - c_a| <= K around c_a = N x_a, where
    K = ceil(N * _gauss_reach): an (G, L) gather Psi[a, i] = g_a(n) state[n mod N]
    with n = ceil(c_a) - K + i, L = 2K + 1 and g_a(n) = exp(-pi squeeze
    (n - c_a)^2 / N). The overlap is then (Psi @ E)[a, b] with
    E[i, b] = exp(-2 pi i xi_b i), up to a phase of modulus one. The squared
    norm of the unwrapped coherent state is

        sum_k e^{2 pi i N k xi_b} sum_n g_a(n) g_a(n + kN),

    where the k != 0 terms appear only when L > N and carry its aliasing.
    """
    N = len(state)
    K = int(math.ceil(N * _gauss_reach(N, squeeze)))
    L = 2 * K + 1
    grid = (np.arange(G) + 0.5) / G
    c = N * grid
    n = np.ceil(c).astype(np.int64)[:, None] - K + np.arange(L)      # (G, L)
    g = np.exp(-math.pi * squeeze / N * (n - c[:, None]) ** 2)
    ovl = (g * state[n % N]) @ np.exp(-2j * math.pi * np.outer(np.arange(L), grid))
    ks = np.arange(-((L - 1) // N), (L - 1) // N + 1)
    C = np.stack([(g[:, : L - abs(k) * N] * g[:, abs(k) * N :]).sum(axis=1) for k in ks], axis=1)
    # C[:, k] = C[:, -k], so the k and -k phases pair into a cosine
    norms2 = C @ np.cos(2.0 * math.pi * N * np.outer(ks, grid))
    H = np.abs(ovl) ** 2 / norms2
    return H / (H.sum() / G**2)
