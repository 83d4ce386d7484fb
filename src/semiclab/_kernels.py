"""Hot numerical kernels, one numpy implementation each.

`bowen_masses` filters Bowen-ball candidates step by step, `l4_moment_sums`
evaluates the same-midpoint chord identity in O(s) per state, and
`husimi_grid` forms coherent-state overlaps with a theta-periodized window.
"""

import math

import numpy as np

# Read only by perfbench's environment fingerprint; there is no numba backend.
USE_NUMBA = False


# ---------------------------------------------------------------- Bowen balls

def bowen_masses(orbits, weights, base_idx, eps):
    """Mass of each Bowen sup-ball: orbits (T+1, P, 2), bases index into P.

    At step t only the points that stayed within eps of the base at every
    earlier step are tested. Survivors stay in ascending index order, so the
    mass is summed exactly as over a full in-ball mask.
    """
    out = np.empty(len(base_idx))
    for i, bi in enumerate(base_idx):
        cand = np.arange(orbits.shape[1])
        for t in range(orbits.shape[0]):
            d = np.abs(orbits[t, cand] - orbits[t, bi])
            cand = cand[(np.minimum(d, 1.0 - d) <= eps).all(axis=1)]
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

def _theta_width(N, squeeze):
    # periodization window: dropped terms are below exp(-40) ~ 1e-18
    return int(math.ceil(math.sqrt(40.0 / (math.pi * N * squeeze)))) + 2


def husimi_grid(state, G, squeeze=1.0):
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

