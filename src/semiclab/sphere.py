"""Spherical harmonics on the round 2-sphere.

Convention (frozen): orthonormal Y_lm with Condon-Shortley phase,
integral conj(Y_lm) Y_l'm' dVol = delta delta, Vol(S^2) = 4pi.
Functions on the sphere are passed around as coefficient lists:
coeffs[l] is a complex vector of length 2l+1 indexed by m = -l..l.
Oriented great circles are identified with their unit normal.
"""

import math
from dataclasses import dataclass

import numpy as np

from semiclab._errors import NumericalSignal

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class SphericalState:
    """Unit vector in the degree-l eigenspace, amplitudes indexed m = -l..l."""

    degree: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if len(self.amplitudes) != 2 * self.degree + 1:
            raise ValueError("amplitude vector has wrong length")
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("amplitudes must be finite")
        if abs(float((np.abs(self.amplitudes) ** 2).sum()) - 1.0) > 1e-12:
            raise ValueError("amplitudes must have unit norm")


@dataclass(frozen=True)
class GeodesicPoint:
    """Oriented great circle, stored as its unit normal."""

    u: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.u, dtype=float)
        if v.shape != (3,):
            raise ValueError("normal must be a 3-vector")
        if not np.isfinite(v).all():
            raise ValueError("normal must be finite")
        if abs(float(np.dot(v, v)) - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")
        object.__setattr__(self, "u", v)


def _norm_legendre(L, x):
    """Fully normalized associated Legendre table with Condon-Shortley phase.

    Returns shape (npts, L+1, L+1); entry [i, l, m] is the theta-part of
    Y_lm at x_i = cos(theta_i) for 0 <= m <= l, zero elsewhere.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    P = np.zeros((len(x), L + 1, L + 1))
    P[:, 0, 0] = math.sqrt(1.0 / FOUR_PI)
    if L == 0:
        return P
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    for m in range(1, L + 1):
        P[:, m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * P[:, m - 1, m - 1]
    for m in range(L):
        P[:, m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * P[:, m, m]
    # three-term recurrence in l, all orders m <= l - 2 at once
    xc = x[:, None]
    for l in range(2, L + 1):
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        P[:, l, : l - 1] = a * (xc * P[:, l - 1, : l - 1] - b * P[:, l - 2, : l - 1])
    return P


def _assemble_rows(Pl, phi):
    # Pl: (npts, l+1) theta-parts for m = 0..l; returns (npts, 2l+1) complex
    # rows of Y_lm using Y_{l,-m} = (-1)^m conj(Y_lm)
    l = Pl.shape[1] - 1
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    ms = np.arange(l + 1)
    pos = Pl * np.exp(1j * np.outer(phi, ms))
    rows = np.empty((Pl.shape[0], 2 * l + 1), dtype=complex)
    rows[:, l:] = pos
    if l > 0:
        rows[:, :l] = (((-1.0) ** ms[1:]) * pos[:, 1:].conj())[:, ::-1]
    return rows


def sph_harm_row(l, theta, phi):
    """Y_lm(theta, phi) for m = -l..l at one or many points."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    Pl = _norm_legendre(l, np.cos(theta))[:, l, :]
    return _assemble_rows(Pl, phi)


def evaluate_state(s, theta, phi):
    """Pointwise value sum_m amplitude_m Y_lm(theta, phi)."""
    if not 0 <= theta <= math.pi:
        raise ValueError("need 0 <= theta <= pi")
    row = sph_harm_row(s.degree, theta, phi)[0]
    return complex(row @ np.asarray(s.amplitudes, dtype=complex))


def evaluate_coefficients(coeffs, theta, phi):
    """Evaluate a coefficient list (coeffs[l] for m = -l..l) at arrays of points."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    L = len(coeffs) - 1
    P = _norm_legendre(L, np.cos(theta))
    out = np.zeros(len(theta), dtype=complex)
    for l, c in enumerate(coeffs):
        c = np.asarray(c, dtype=complex)
        if len(c) != 2 * l + 1:
            raise ValueError("coefficient block has wrong length")
        if not np.any(c):
            continue
        out += _assemble_rows(P[:, l, : l + 1], phi) @ c
    return out


def highest_weight_constant(l):
    """c_l with c_l^2 * 2pi * integral_0^pi sin^{2l+1} = 1."""
    if l < 0:
        raise ValueError("need l >= 0")
    c2 = 1.0 / FOUR_PI
    for m in range(1, l + 1):
        c2 *= (2 * m + 1) / (2.0 * m)
    return math.sqrt(c2)


def highest_weight_state(l):
    """The state evaluating to c_l e^{il phi} sin^l(theta)."""
    amp = np.zeros(2 * l + 1, dtype=complex)
    amp[2 * l] = (-1.0) ** l
    return SphericalState(l, amp)


def equator_concentration(l, a):
    """integral a(cos theta) |psi_l^hw|^2 dVol for polynomial a (coefficient
    list, constant term first), by the exact moment recurrence."""
    a = list(a)
    total = 0.0
    for i, coef in enumerate(a):
        if coef == 0 or i % 2 == 1:
            continue
        mom = 1.0
        for r in range(1, i // 2 + 1):
            mom *= (2 * r - 1) / (2 * l + 2 * r + 1)
        total += coef * mom
    return total


def reproducing_kernel_diag(l):
    """sum_m |Y_lm|^2 at 20 fixed random points; constant (2l+1)/(4pi)."""
    rng = np.random.default_rng(314159)
    x = rng.uniform(-1.0, 1.0, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    Pl = _norm_legendre(l, x)[:, l, :]
    rows = _assemble_rows(Pl, phi)
    vals = (np.abs(rows) ** 2).sum(axis=1)
    if float(vals.max() - vals.min()) > 1e-8:
        raise NumericalSignal("kernel-not-constant", f"l={l} spread={vals.max()-vals.min():.2e}")
    return float(vals.mean())


def _haar_unitary(rng, d):
    # Ginibre QR with the phases of diag(R) divided out: Haar on U(d)
    G = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R))).conj()[None, :]


def random_onb(l, seed):
    """Haar-random orthonormal basis of the degree-l eigenspace."""
    d = 2 * l + 1
    Q = _haar_unitary(np.random.default_rng(seed), d)
    return [SphericalState(l, Q[:, j].copy()) for j in range(d)]


def zonal_diagonal(l, a):
    """Diagonal matrix elements <Y_lm, a(cos theta) Y_lm>, m = -l..l, for a
    polynomial a (coefficient list); Gauss-Legendre, exact for the degrees."""
    a = np.asarray(list(a), dtype=float)
    deg = len(a) - 1
    x, w = np.polynomial.legendre.leggauss(l + deg + 2)
    av = np.polynomial.polynomial.polyval(x, a)
    Pl = _norm_legendre(l, x)[:, l, :]
    dpos = 2.0 * math.pi * ((w * av)[:, None] * Pl**2).sum(axis=0)
    out = np.empty(2 * l + 1)
    out[l:] = dpos
    out[:l] = dpos[1:][::-1]
    return out


def alpha_cos2(l):
    """Closed-form <Y_lm, cos^2 theta Y_lm> for m = -l..l."""
    m = np.arange(-l, l + 1, dtype=float)
    up = ((l + 1.0) ** 2 - m**2) / ((2 * l + 1.0) * (2 * l + 3.0))
    dn = (l**2 - m**2) / ((2 * l - 1.0) * (2 * l + 1.0)) if l > 0 else np.zeros_like(m)
    return up + dn


def concentration_experiment(l, a, trials, seed):
    """Distribution of sup_m |integral a |e_m|^2| over Haar bases of E_l.

    a is a zero-mean zonal polynomial (coefficient list in cos theta).
    Returns a summary record with the per-trial sups, their median, and the
    fraction exceeding l^{-1/8}.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    a = list(a)
    mean = sum(c / (i + 1.0) for i, c in enumerate(a) if i % 2 == 0)
    if abs(mean) > 1e-12 * max(1.0, max(abs(c) for c in a)):
        raise ValueError("observable must have zero spherical mean")
    diag = zonal_diagonal(l, a)
    rng = np.random.default_rng(seed)
    d = 2 * l + 1
    sups = np.empty(trials)
    for t in range(trials):
        Q = _haar_unitary(rng, d)
        devs = (np.abs(Q) ** 2 * diag[:, None]).sum(axis=0)
        sups[t] = float(np.abs(devs).max())
    threshold = l ** (-1.0 / 8.0)
    return {
        "l": l,
        "trials": trials,
        "seed": seed,
        "sup_deviations": sups.tolist(),
        "median_sup": float(np.median(sups)),
        "threshold": threshold,
        "exceed_fraction": float((sups > threshold).mean()),
    }


def _legendre_at_zero(L):
    """P_l(0) for l = 0..L: zero for odd l, (-1)^{l/2} (l-1)!!/l!! for even l."""
    p = np.zeros(L + 1)
    p[0] = 1.0
    for l in range(2, L + 1, 2):
        p[l] = -(l - 1.0) / l * p[l - 2]
    return p


def _radon_at(V, theta, phi):
    # Funk-Hecke: the average of Y_lm over the great circle with normal u is
    # P_l(0) Y_lm(u), so the Radon transform of V is the function whose
    # coefficients are P_l(0) V_l, evaluated at the normals (theta, phi)
    p0 = _legendre_at_zero(len(V) - 1)
    RV = [p0[l] * np.asarray(c, dtype=complex) for l, c in enumerate(V)]
    return evaluate_coefficients(RV, theta, phi).real


def _radon_at_normals(V, u):
    # u: (n, 3) nonzero vectors; the transform at u / |u|
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u, axis=1)[:, None]
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    return _radon_at(V, theta, np.arctan2(u[:, 1], u[:, 0]))


def radon_transform(V, gamma):
    """Average of V (coefficient list) over the great circle normal to gamma."""
    return float(_radon_at_normals(V, gamma.u[None, :])[0])


def radon_flow(V, gamma0, t):
    """Hamiltonian flow of the Radon average on the space of geodesics.

    The space of oriented great circles is the unit sphere of normals with
    the area symplectic form; the flow is u' = grad R(V) x u with the
    0-homogeneous extension of R(V), integrated adaptively.
    """
    from scipy.integrate import solve_ivp

    if t == 0:
        return gamma0
    h = 1e-5
    # central differences: rows v + h e_i, then v - h e_i
    stencil = np.vstack([h * np.eye(3), -h * np.eye(3)])

    def rhs(_, v):
        R = _radon_at_normals(V, v + stencil)
        g = (R[:3] - R[3:]) / (2.0 * h)
        return np.cross(g, v)

    sol = solve_ivp(rhs, (0.0, t), gamma0.u, method="RK45", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise NumericalSignal("step-failure", sol.message)
    v = sol.y[:, -1]
    drift = abs(float(np.linalg.norm(v)) - 1.0)
    if drift > 1e-8:
        raise NumericalSignal("step-failure", f"sphere constraint drift {drift:.2e}")
    return GeodesicPoint(v / np.linalg.norm(v))


def block_slices(L):
    """Index ranges of the degree blocks in the stacked space up to L."""
    out = []
    start = 0
    for l in range(L + 1):
        out.append(slice(start, start + 2 * l + 1))
        start += 2 * l + 1
    return out


def laplacian_diagonal(L):
    """Diagonal of the Laplacian on the stacked harmonic decomposition."""
    return np.concatenate([np.full(2 * l + 1, l * (l + 1.0)) for l in range(L + 1)])


def quantum_average(B, L):
    """Conjugation average over the periodic quantum flow: exact projection
    onto the block-diagonal part of the harmonic decomposition up to L."""
    B = np.asarray(B)
    D = (L + 1) ** 2
    if B.shape != (D, D):
        raise NumericalSignal("shape-mismatch", f"expected {(D, D)}, got {B.shape}")
    out = np.zeros_like(B, dtype=complex)
    for sl in block_slices(L):
        out[sl, sl] = B[sl, sl]
    return out


def _compression_matrix(V, l, extra_theta=0, extra_phi=0):
    LV = len(V) - 1
    n_theta = l + LV // 2 + 4 + extra_theta
    n_phi = 2 * l + LV + 8 + extra_phi
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    theta = np.arccos(x)
    tt = np.repeat(theta, n_phi)
    pp = np.tile(phis, n_theta)
    vals = evaluate_coefficients(V, tt, pp).reshape(n_theta, n_phi)
    # phi integral via DFT: F[j, d] = sum_k V[j, k] e^{i d phi_k}
    F = np.fft.ifft(vals, axis=1) * n_phi
    d = 2 * l + 1
    ms = np.arange(-l, l + 1)
    D = (ms[None, :] - ms[:, None]) % n_phi
    FD = F[:, D]
    Pl = _norm_legendre(l, x)[:, l, :]
    rows = np.empty((n_theta, d))
    rows[:, l:] = Pl
    rows[:, :l] = (((-1.0) ** np.arange(1, l + 1)) * Pl[:, 1:])[:, ::-1]
    M = np.einsum("j,jm,jn,jmn->mn", w * (2.0 * math.pi / n_phi), rows, rows, FD)
    return 0.5 * (M + M.conj().T)


def band_compression(V, l):
    """Matrix of <Y_lm, V Y_lm'> on the degree-l eigenspace; quadrature is
    exact for the bandwidths involved, cross-checked on a refined grid."""
    if l < 1:
        raise ValueError("need l >= 1")
    M = _compression_matrix(V, l)
    M2 = _compression_matrix(V, l, extra_theta=4, extra_phi=8)
    if float(np.abs(M - M2).max()) > 1e-9:
        raise NumericalSignal("quadrature-underresolved", f"l={l}")
    return M2


def _is_zonal(V):
    for l, c in enumerate(V):
        c = np.asarray(c, dtype=complex)
        mask = np.ones(2 * l + 1, dtype=bool)
        mask[l] = False
        if np.abs(c[mask]).max(initial=0.0) > 1e-14:
            return False
    return True


def radon_range(V, n_grid=2001):
    """[min, max] of the Radon transform sampled over the geodesic sphere.

    Zonal V gives a transform that depends on u3 only, sampled at n_grid
    heights; otherwise the normals form a heights x longitudes grid.
    """
    if _is_zonal(V):
        theta = np.arccos(np.linspace(-1.0, 1.0, n_grid))
        phi = np.zeros(n_grid)
    else:
        nt = max(41, int(math.isqrt(n_grid)))
        u3 = np.linspace(-1.0, 1.0, nt)
        ph = np.linspace(0.0, 2.0 * math.pi, 2 * nt + 1)[:-1]
        theta = np.repeat(np.arccos(u3), len(ph))
        phi = np.tile(ph, nt)
    vals = _radon_at(V, theta, phi)
    return float(vals.min()), float(vals.max())


def hausdorff_to_interval(points, lo, hi):
    """Hausdorff distance between a finite point set and the interval [lo, hi]."""
    pts = np.sort(np.asarray(points, dtype=float))
    if len(pts) == 0:
        raise ValueError("empty point set")
    if hi < lo:
        raise ValueError("empty interval")
    d1 = max(lo - pts[0], pts[-1] - hi, 0.0)
    cands = [lo, hi]
    for a, b in zip(pts[:-1], pts[1:]):
        m = 0.5 * (a + b)
        if lo <= m <= hi:
            cands.append(m)
    d2 = max(float(np.abs(pts - y).min()) for y in cands)
    return max(d1, d2)


def band_spectrum_vs_radon(V, l):
    """Eigenvalues of the band compression of V against the Radon range."""
    M = band_compression(V, l)
    eigs = np.sort(np.linalg.eigvalsh(M))
    lo, hi = radon_range(V)
    return {
        "l": l,
        "band_eigenvalues": eigs,
        "radon_range": (lo, hi),
        "hausdorff": hausdorff_to_interval(eigs, lo, hi),
    }


def zonal_from_polynomial(a, L):
    """Spherical-harmonic coefficient list of a polynomial in cos(theta)."""
    a = np.asarray(list(a), dtype=float)
    deg = len(a) - 1
    x, w = np.polynomial.legendre.leggauss(max(L, deg) + 2)
    av = np.polynomial.polynomial.polyval(x, a)
    P = _norm_legendre(L, x)
    out = []
    for l in range(L + 1):
        c = np.zeros(2 * l + 1, dtype=complex)
        c[l] = 2.0 * math.pi * float((w * av * P[:, l, 0]).sum())
        out.append(c)
    return out
