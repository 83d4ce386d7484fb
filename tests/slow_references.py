"""Slow direct references that only the tests compare the package against.

Each is the plain formula for a quantity the package computes another way:
`alpha_cos2` for the diagonal of `sphere.band_compression`,
`laplacian_diagonal` for `sphere.quantum_average`, `density_moment`, the
p-th Fourier coefficient of |psi|^2, for `_kernels.l4_moment_sums`,
`evaluate_on_grid` for the quadrature that
checks `torus.exact_l4`, `pair_degeneracy` for the Jarnik pair scan of
`lattice-jarnik`, and `partition_norm` for the prefix norms of
`catmap.partition_product_norm`.
"""

import math

import numpy as np

from semiclab._errors import NumericalSignal


def alpha_cos2(l):
    """Closed-form <Y_lm, cos^2 theta Y_lm> for m = -l..l."""
    m = np.arange(-l, l + 1, dtype=float)
    up = ((l + 1.0) ** 2 - m**2) / ((2 * l + 1.0) * (2 * l + 3.0))
    dn = (l**2 - m**2) / ((2 * l - 1.0) * (2 * l + 1.0)) if l > 0 else np.zeros_like(m)
    return up + dn


def laplacian_diagonal(L):
    """Diagonal of the Laplacian on the stacked harmonic decomposition."""
    return np.concatenate([np.full(2 * l + 1, l * (l + 1.0)) for l in range(L + 1)])


def density_moment(psi, p):
    """sum_k c_k conj(c_{k-p}) over pairs with both k and k-p on the shell."""
    idx = psi.shell.index()
    p = tuple(p)
    total = 0.0 + 0.0j
    for i, k in enumerate(psi.shell.vectors):
        j = idx.get(tuple(a - b for a, b in zip(k, p)))
        if j is not None:
            total += psi.amplitudes[i] * np.conj(psi.amplitudes[j])
    return complex(total)


def evaluate_on_grid(psi, G):
    """psi sampled on the uniform G x G grid x = 2pi j / G (needs G > 2 sqrt(m))."""
    if G <= 2 * math.isqrt(psi.shell.radius_squared):
        raise ValueError("grid too coarse for the shell")
    spec = np.zeros((G, G), dtype=complex)
    for (k1, k2), c in zip(psi.shell.vectors, psi.amplitudes):
        spec[k1 % G, k2 % G] += c
    return np.fft.ifft2(spec) * G * G


def pair_degeneracy(shell, p):
    """Number of shell vectors k such that k - p is also on the shell."""
    if len(shell) == 0:
        raise NumericalSignal("empty-shell", "pair_degeneracy needs a nonempty shell")
    members = set(shell.vectors)
    p = tuple(p)
    return sum(1 for k in shell.vectors if tuple(a - b for a, b in zip(k, p)) in members)


def partition_norm(U, partition, word):
    """2-norm of pi_{a_{M-1}}(M-1) ... pi_{a_0}(0), each factor
    pi_a(t) = U^{-t} diag(partition[a]) U^t built from matrix powers."""
    product = np.eye(len(U), dtype=complex)
    for t, a in enumerate(word):
        Ut = np.linalg.matrix_power(U, t)
        product = Ut.conj().T @ np.diag(partition[a]) @ Ut @ product
    return float(np.linalg.norm(product, 2))
