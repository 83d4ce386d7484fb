"""Hot numerical kernels and sampled states, one numpy implementation each.

`bowen_masses` takes Bowen-ball candidates from the 3 x 3 neighbouring cells
of a grid of cells at least eps wide and filters them step by step, and
`l4_moment_sums` evaluates the same-midpoint chord identity in O(s) per
state. `_gaussian_window` is the one truncation of the periodized Gaussian
exp(-pi (n - c)^2 / N), cut at exp(-40): `catmap._coherent_array` folds it
onto Z/N, and `husimi_grid` forms each grid row's overlaps on it by one FFT,
with the exact aliased norm. `_ginibre` is the one complex Gaussian fill,
and `_haar_unitary`, the one Haar draw on U(d), takes its QR behind the
random torus-shell bases and the trials of `sphere.concentration_experiment`.
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

    The t = 0 points are binned into M x M cells, M = max(1, floor(1 / (eps
    + 1e-9))), so each cell is at least eps + 1e-9 wide and every point
    within eps of a base lies in the base's 3 x 3 neighbouring cells mod M.
    The t = 0 test runs on those candidates only; its survivors, in
    ascending index order, are then tested step by step: at step t only the
    points that stayed within eps at every earlier step are tested, so the
    mass is summed exactly as over a full in-ball mask. A ball depends only
    on its base's orbit, so each distinct base orbit is scanned once and its
    mass handed to every base with that orbit.
    """
    M = max(1, int(1.0 / (eps + 1e-9)))     # the pad dwarfs the rounding of x M
    # cell r M + c of each t = 0 point, row r along x; order lists each cell's
    # points, cell by cell, between its bounds
    cell = (np.floor(orbits[0] * M).astype(np.int64) % M) @ (M, 1)
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell, np.arange(M * M + 1), sorter=order)
    base_idx = np.asarray(base_idx)
    _, first, inverse = np.unique(
        orbits[:, base_idx].swapaxes(0, 1).reshape(len(base_idx), 2 * orbits.shape[0]),
        axis=0, return_index=True, return_inverse=True,
    )
    out = np.empty(len(first))
    for i, bi in enumerate(base_idx[first]):
        cx, cy = divmod(int(cell[bi]), M)
        near = [(r % M) * M + c % M for r in (cx - 1, cx, cx + 1) for c in (cy - 1, cy, cy + 1)]
        idx = np.concatenate([order[bounds[c] : bounds[c + 1]] for c in near])
        # np.unique restores ascending index order (and drops the repeated
        # cells once M < 3)
        cand = np.unique(idx[_within(orbits[0, idx], orbits[0, bi], eps)])
        for t in range(1, orbits.shape[0]):
            cand = cand[_within(orbits[t, cand], orbits[t, bi], eps)]
        out[i] = weights[cand].sum()
    # the inverse's shape differs across numpy 2.x releases
    return out[inverse.ravel()]


# ------------------------------------------------- batched L4 moment sums

def l4_moment_sums(C):
    """For each state row of C: S = sum over difference vectors p of |M(p)|^2,
    returned with X = sum_k |c_k|^2 as the pair (S, X).

    M(p) = sum_{k - k' = p} c_k conj(c_k') is the p-th Fourier coefficient of
    |psi|^2, so S times (2pi)^2 is the integral of |psi|^4 over T^2.
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
    A = C.real**2
    A += C.imag**2
    s = C.shape[1]
    h = s // 2
    X = np.einsum("ij->i", A)
    F = np.einsum("ij,ij->i", A, A)
    # the terms of Y and Z at k and -k are equal: sum one half twice
    Y = 2.0 * np.einsum("ij,ij->i", C[:, :h], C[:, : -h - 1 : -1])
    Z = 2.0 * np.einsum("ij,ij->i", A[:, :h], A[:, : -h - 1 : -1])
    if s % 2:
        # k = -k only for the zero vector, in the middle
        Y += C[:, h] ** 2
        Z += A[:, h] ** 2
    out = 2.0 * X**2 - F + np.abs(Y) ** 2 - 2.0 * Z
    if s % 2:
        # add back the triple overlap of the zero vector
        out += A[:, h] ** 2
    return out, X


# ------------------------------------------ Gaussian windows and Husimi grids

# Gaussian terms exp(-pi N u^2) below exp(-_CUTOFF) are dropped.
_CUTOFF = 40.0


def _gaussian_window(N, c):
    """Unwrapped sites n = ceil(c) - K .. ceil(c) + K and their weights
    exp(-pi (n - c)^2 / N), K = ceil(sqrt(_CUTOFF N / pi)):
    every term left out is below exp(-_CUTOFF). c is a scalar or an array
    of centers, one row each.
    """
    K = int(math.ceil(N * math.sqrt(_CUTOFF / (math.pi * N))))
    c = np.asarray(c, dtype=float)
    n = np.ceil(c).astype(np.int64)[..., None] - K + np.arange(2 * K + 1)
    g = np.exp(-math.pi / N * (n - c[..., None]) ** 2)
    return n, g


def husimi_grid(state, G):
    """|<coherent(x_a, xi_b) | state>|^2 on cell centers; rows index x.

    Row a sees only its Gaussian window about c_a = N x_a: an (G, L) gather
    Psi[a, i] = g_a(n) state[n mod N] over the window's sites n. Up to a
    phase of modulus one, the overlap is sum_i Psi[a, i] e^{-2 pi i xi_b i}
    with xi_b = (b + 1/2) / G: the sites take the phase e^{-pi i i / G}, are
    folded mod G and go through one length-G FFT, whose bits follow no BLAS
    thread count. The squared norm of the unwrapped coherent state is

        sum_k e^{2 pi i N k xi_b} sum_n g_a(n) g_a(n + kN),

    where the k != 0 terms appear only when L > N and carry its aliasing.
    """
    N = len(state)
    grid = (np.arange(G) + 0.5) / G
    n, g = _gaussian_window(N, N * grid)                             # (G, L)
    L = n.shape[1]
    Psi = g * state[n % N] * np.exp(-1j * math.pi / G * np.arange(L))
    ovl = np.fft.fft(np.pad(Psi, ((0, 0), (0, -L % G))).reshape(G, -1, G).sum(axis=1))
    ks = np.arange(-((L - 1) // N), (L - 1) // N + 1)
    C = np.stack([(g[:, : L - abs(k) * N] * g[:, abs(k) * N :]).sum(axis=1) for k in ks], axis=1)
    # C[:, k] = C[:, -k], so the k and -k phases pair into a cosine
    norms2 = C @ np.cos(2.0 * math.pi * N * np.outer(ks, grid))
    H = np.abs(ovl) ** 2 / norms2
    return H / (H.sum() / G**2)


# ---------------------------------------------------- Ginibre fill, Haar draw

def _ginibre(rng, shape):
    # the bits of standard_normal(shape) + 1j * standard_normal(shape),
    # filled in place: no complex temporary, one float draw at a time
    G = np.empty(shape, dtype=complex)
    G.real = rng.standard_normal(shape)
    G.imag = rng.standard_normal(shape)
    return G


def _haar_unitary(rng, d):
    # Ginibre QR with the phases of diag(R) divided out: Haar on U(d)
    G = _ginibre(rng, (d, d))
    G /= math.sqrt(2)
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()[None, :]
