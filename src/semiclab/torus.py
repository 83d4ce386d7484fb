"""Flat-torus eigenfunctions and exact Weyl quantization.

Conventions (frozen): psi(x) = sum_k c_k e^{ik.x} on [0, 2pi]^n with
<f, g> = integral conj(f) g dx, so norm 1 means (2pi)^n sum |c_k|^2 = 1.
The density moments M(p) = sum_k c_k conj(c_{k-p}) are the Fourier
coefficients of |psi|^2, i.e. |psi(x)|^2 = sum_p M(p) e^{ip.x}. The Weyl
matrix element between modes k and k+p evaluates the momentum profile at
the midpoint hbar (k + p/2), which makes conjugation by the quantum flow
exact. A symbol flowed for time t is its terms and t (`TorusSymbol.t`):
each profile gains the phase e^{itp.xi}, and flows compose by adding
their times.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from semiclab import _kernels
from semiclab._errors import NumericalSignal, check_integer
from semiclab.lattice import LatticeShell, count_in_ball

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TorusEigenfunction:
    """Single-shell eigenfunction: amplitudes aligned with shell.vectors."""

    shell: LatticeShell
    amplitudes: np.ndarray

    def __post_init__(self):
        if len(self.amplitudes) != len(self.shell):
            raise ValueError(f"{len(self.amplitudes)} amplitudes for a shell of {len(self.shell)}")

    @property
    def dimension(self):
        return self.shell.dimension

    @property
    def hbar(self):
        return self.shell.radius_squared ** -0.5


@dataclass(frozen=True)
class TorusSymbol:
    """a(x, xi) = sum_p e^{ip.x} f_p(xi) e^{itp.xi}: the symbol with terms
    f_p composed with the geodesic flow for time t. Profiles are complex
    constants (x-only terms) or callables xi -> complex."""

    terms: dict
    t: float = 0.0

    def is_x_only(self):
        return self.t == 0 and all(not callable(f) for f in self.terms.values())


def exponential_symbol(p):
    return TorusSymbol({tuple(p): 1.0 + 0.0j})


def cosine_symbol(p, scale=1.0):
    """scale * cos(p.x) as a symbol."""
    p = tuple(p)
    neg = tuple(-c for c in p)
    if p == neg:
        return TorusSymbol({p: complex(scale)})
    return TorusSymbol({p: scale / 2 + 0j, neg: scale / 2 + 0j})


def random_eigenfunction(shell, seed):
    """Normalized eigenfunction with iid complex-Gaussian shell amplitudes."""
    if len(shell) == 0:
        raise NumericalSignal("empty-shell", f"shell m={shell.radius_squared}")
    check_integer("radius_squared", shell.radius_squared, 1)
    c = _kernels._ginibre(np.random.default_rng(seed), len(shell))
    c /= TWO_PI ** (shell.dimension / 2) * np.linalg.norm(c)
    return TorusEigenfunction(shell, c)


def random_shell_basis(shell, seed):
    """Haar-random orthonormal basis of the shell eigenspace (phase-fixed QR)."""
    if len(shell) == 0:
        raise NumericalSignal("empty-shell", f"shell m={shell.radius_squared}")
    Q = _kernels._haar_unitary(np.random.default_rng(seed), len(shell))
    C = Q / TWO_PI ** (shell.dimension / 2)
    return [TorusEigenfunction(shell, C[:, j].copy()) for j in range(len(shell))]


def exact_l4(psi):
    """Exact integral of |psi|^4 over T^2 via Plancherel on density moments."""
    if psi.dimension != 2:
        raise NumericalSignal("unsupported-dimension", "exact_l4 needs n = 2")
    S, _ = _kernels.l4_moment_sums(psi.amplitudes[None, :])
    return TWO_PI**2 * float(S[0])


def l4_batch(shell, n_states, seed):
    """exact_l4 for n_states seeded random eigenfunctions on one shell."""
    if shell.dimension != 2:
        raise NumericalSignal("unsupported-dimension", "l4_batch needs n = 2")
    if len(shell) == 0:
        raise NumericalSignal("empty-shell", f"shell m={shell.radius_squared}")
    check_integer("n_states", n_states, 1)
    C = _kernels._ginibre(np.random.default_rng(seed), (n_states, len(shell)))
    # S is homogeneous of degree 4, so for the normalized states
    # C / (2pi sqrt(X)) the integral (2pi)^2 S becomes S / (2pi X)^2
    S, X = _kernels.l4_moment_sums(C)
    return S / (TWO_PI * X) ** 2


def _check_momenta(a, n):
    for p in a.terms:
        if len(p) != n:
            raise ValueError(f"symbol momentum {p} has length {len(p)}, not the dimension {n} of the eigenfunctions")


def wigner(psi, a):
    """Weyl matrix element <psi, Op(a) psi> with midpoint momentum evaluation.

    The flow phase e^{itp.xi} is taken as t hbar (p.mid), so that shell
    pairs (p.mid = 0 in exact integer/half-integer arithmetic) get phase
    exactly 1.
    """
    idx = psi.shell.index()
    c = psi.amplitudes
    hbar = psi.hbar
    n = psi.dimension
    _check_momenta(a, n)
    total = 0.0 + 0.0j
    for p, prof in a.terms.items():
        half = np.asarray(p, dtype=float) / 2.0
        for i, k in enumerate(psi.shell.vectors):
            j = idx.get(tuple(ka + pa for ka, pa in zip(k, p)))
            if j is None:
                continue
            mid = np.asarray(k, dtype=float) + half
            value = prof(hbar * mid) if callable(prof) else prof
            if a.t:
                value = value * cmath.exp(1j * a.t * hbar * float(np.dot(p, mid)))
            total += np.conj(c[j]) * c[i] * value
    return complex(total * TWO_PI**n)


def egorov_conjugate(a, t):
    """The symbol a composed with the geodesic flow at time t; flows
    compose by adding their times."""
    if not math.isfinite(t):
        raise ValueError(f"need finite t: t={t!r}")
    if t == 0:
        return a
    return TorusSymbol(a.terms, a.t + float(t))


def quantum_variance(basis, a):
    """Variance of the a-observable over an orthonormal eigenbasis up to the
    largest shell present; a must depend on x only (constant profiles)."""
    if not a.is_x_only():
        raise ValueError("quantum_variance needs an x-only symbol")
    if not basis:
        raise ValueError("empty basis")
    n = basis[0].dimension
    _check_momenta(a, n)
    by_shell = {}
    for psi in basis:
        by_shell.setdefault(psi.shell.radius_squared, []).append(psi)
    M = max(by_shell)
    # points with |k|^2 <= M; math.sqrt(M) itself may round below the root
    expected = count_in_ball(math.sqrt(M + 0.5), n) - 1
    total_states = sum(len(v) for v in by_shell.values())
    if total_states != expected:
        raise ValueError(f"basis has {total_states} states, shells up to {M} need {expected}")
    ahat = {tuple(p): complex(v) for p, v in a.terms.items() if any(p)}
    P = np.array(list(ahat), dtype=np.int64).reshape(-1, n)
    coef = TWO_PI**n * np.array(list(ahat.values()), dtype=complex)
    # keys sum_i v_i W^i are additive, and injective on the vectors with
    # entries below W/2 in size, which holds for every k and k + p
    W = 2 * (math.isqrt(M) + int(np.abs(P).max(initial=0))) + 1
    w = W ** np.arange(n, dtype=np.int64)
    by_size = {}
    for group in by_shell.values():
        if len(group) != len(group[0].shell):
            raise ValueError("basis does not span a shell")
        by_size.setdefault(len(group), []).append(group)
    total = 0.0
    batches = (
        (s, same[at : at + 16]) for s, same in by_size.items() for at in range(0, len(same), 16)
    )
    for s, groups in batches:
        # up to 16 shells of equal size form one batch: C[g, t, i] is the
        # amplitude of state t of shell g at its vector k_i, K[g, i] its key
        C = np.array([[psi.amplitudes for psi in group] for group in groups])
        gram = TWO_PI**n * (C @ C.conj().transpose(0, 2, 1))
        bad = np.flatnonzero(np.abs(gram - np.eye(s)).max(axis=(1, 2)) > 1e-8)
        if bad.size:
            m = groups[bad[0]][0].shell.radius_squared
            raise NumericalSignal("non-orthonormal-basis", f"shell m={m}")
        K = np.array([group[0].shell.vectors for group in groups], dtype=np.int64) @ w
        # hit[g, q, i, j] says k_i + p_q = k_j, so (C @ hit)[g, q, t, j] is
        # the amplitude at k_j - p_q, and moments[g, q, t] = moment_t(-p_q)
        hit = (K[:, None, :] + (P @ w)[:, None])[..., None] == K[:, None, None, :]
        moments = ((C[:, None] @ hit) * C[:, None].conj()).sum(axis=3)
        total += float((np.abs(np.einsum("q,gqt->gt", coef, moments)) ** 2).sum())
    return total / expected

