"""Spherical harmonics on the round 2-sphere.

Convention (frozen): orthonormal Y_lm with Condon-Shortley phase,
integral conj(Y_lm) Y_l'm' dVol = delta delta, Vol(S^2) = 4pi.
Functions on the sphere are passed around as coefficient lists:
coeffs[l] is a finite complex vector of length 2l+1 indexed by m = -l..l.
Oriented great circles are identified with their unit normal.
"""

import math

import numpy as np

from semiclab import _kernels
from semiclab._errors import NumericalSignal, check_integer

FOUR_PI = 4.0 * math.pi
_RADON_GRID = 2001


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


def _block(l, c):
    c = np.asarray(c, dtype=complex)
    if len(c) != 2 * l + 1:
        raise ValueError(f"coefficient block of degree {l} has wrong length")
    if not np.isfinite(c).all():
        raise ValueError(f"coefficient block of degree {l} is not finite")
    return c


def evaluate_coefficients(coeffs, theta, phi):
    """Evaluate a coefficient list (coeffs[l] for m = -l..l) at arrays of points."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    L = len(coeffs) - 1
    P = _norm_legendre(L, np.cos(theta))
    out = np.zeros(len(theta), dtype=complex)
    for l, c in enumerate(coeffs):
        c = _block(l, c)
        if not np.any(c):
            continue
        out += _assemble_rows(P[:, l, : l + 1], phi) @ c
    return out


def equator_concentration(l, a):
    """integral a(cos theta) |psi_l^hw|^2 dVol for polynomial a (coefficient
    list, constant term first), by the exact moment recurrence."""
    check_integer("l", l, 0)
    total = 0.0
    for i, coef in enumerate(a):
        if coef == 0 or i % 2 == 1:
            continue
        mom = 1.0
        for r in range(1, i // 2 + 1):
            mom *= (2 * r - 1) / (2 * l + 2 * r + 1)
        total += coef * mom
    return total


def reproducing_kernel_diags(L):
    """sum_m |Y_lm|^2 at 20 fixed random points, for l = 0..L, from one
    Legendre table; each is constant (2l+1)/(4pi)."""
    check_integer("L", L, 0)
    rng = np.random.default_rng(314159)
    x = rng.uniform(-1.0, 1.0, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    P = _norm_legendre(L, x)
    out = []
    for l in range(L + 1):
        vals = (np.abs(_assemble_rows(P[:, l, : l + 1], phi)) ** 2).sum(axis=1)
        spread = float(vals.max() - vals.min())
        if spread > 1e-8:
            raise NumericalSignal("kernel-not-constant", f"l={l} spread={spread:.2e}")
        out.append(float(vals.mean()))
    return out


def concentration_experiment(l, a, trials, seed):
    """Distribution of sup_m |integral a |e_m|^2| over Haar bases of E_l.

    a is a zero-mean zonal polynomial (coefficient list in cos theta).
    Returns a summary record with the per-trial sups, their median, and the
    fraction exceeding l^{-1/8}.
    """
    check_integer("trials", trials, 1)
    a = list(a)
    mean = sum(c / (i + 1.0) for i, c in enumerate(a) if i % 2 == 0)
    if abs(mean) > 1e-12 * max(1.0, max(abs(c) for c in a)):
        raise ValueError("observable must have zero spherical mean")
    diag = band_compression(zonal_from_polynomial(a, len(a) - 1), l).diagonal().real
    rng = np.random.default_rng(seed)
    d = 2 * l + 1
    sups = np.empty(trials)
    for t in range(trials):
        Q = _kernels._haar_unitary(rng, d)
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
    RV = [p0[l] * _block(l, c) for l, c in enumerate(V)]
    return evaluate_coefficients(RV, theta, phi).real


def _radon_at_normals(V, u):
    # u: (n, 3) nonzero vectors; the transform at u / |u|
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u, axis=1)[:, None]
    theta = np.arccos(np.clip(u[:, 2], -1.0, 1.0))
    return _radon_at(V, theta, np.arctan2(u[:, 1], u[:, 0]))


def radon_flow(V, u, t):
    """Hamiltonian flow of the Radon average on the space of geodesics.

    The space of oriented great circles is the unit sphere of normals with
    the area symplectic form; the flow is u' = grad R(V) x u with the
    0-homogeneous extension of R(V), its gradient taken by central
    differences. The rows of the (n, 3) array u flow together into a new
    array (u itself at t = 0), by classical RK4 on equal steps, from 16
    steps and doubling until two successive runs agree to 1e-10 in max
    norm; NumericalSignal("step-failure") is raised past 2**16 steps.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3 or len(u) == 0:
        raise ValueError(f"normals must have shape (n, 3), n >= 1: shape={u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("normals must be finite")
    if np.abs(np.einsum("ij,ij->i", u, u) - 1.0).max() > 1e-12:
        raise ValueError("normals must be unit vectors")
    if not math.isfinite(t):
        raise ValueError(f"need finite t: t={t!r}")
    if t == 0:
        return u
    h = 1e-5
    # central differences: for each row v, rows v + h e_i, then v - h e_i
    stencil = np.vstack([h * np.eye(3), -h * np.eye(3)])

    def rhs(v):
        R = _radon_at_normals(V, (v[:, None, :] + stencil).reshape(-1, 3)).reshape(-1, 6)
        g = (R[:, :3] - R[:, 3:]) / (2.0 * h)
        return np.cross(g, v)

    def rk4(n):
        dt = t / n
        v = u
        for _ in range(n):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * dt * k1)
            k3 = rhs(v + 0.5 * dt * k2)
            k4 = rhs(v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return v

    n, v = 16, rk4(16)
    while True:
        n *= 2
        if n > 2 ** 16:
            raise NumericalSignal("step-failure", "RK4 did not settle to 1e-10 by 2**16 steps")
        prev, v = v, rk4(n)
        if float(np.abs(v - prev).max()) <= 1e-10:
            break
    norms = np.linalg.norm(v, axis=1)
    drift = float(np.abs(norms - 1.0).max())
    if drift > 1e-8:
        raise NumericalSignal("step-failure", f"sphere constraint drift {drift:.2e}")
    return v / norms[:, None]


def block_slices(L):
    """Index ranges of the degree blocks in the stacked space up to L: the
    2l + 1 places of degree l follow the l^2 of the degrees below."""
    check_integer("L", L, 0)
    return [slice(l * l, (l + 1) ** 2) for l in range(L + 1)]


def quantum_average(B, L):
    """Conjugation average over the periodic quantum flow: exact projection
    onto the block-diagonal part of the harmonic decomposition up to L."""
    check_integer("L", L, 0)
    B = np.asarray(B)
    D = (L + 1) ** 2
    if B.shape != (D, D):
        raise NumericalSignal("shape-mismatch", f"expected {(D, D)}, got {B.shape}")
    out = np.zeros((D, D), dtype=complex)
    for sl in block_slices(L):
        out[sl, sl] = B[sl, sl]
    return out


def band_compression(V, l):
    """Matrix of <Y_lm, V Y_lm'> on the degree-l eigenspace, by one
    Gauss-Legendre rule of l + deg V // 2 + 8 nodes in cos(theta); the
    integrand is a polynomial of degree <= 2l + deg V, so the rule is exact
    up to roundoff."""
    check_integer("l", l, 1)
    # <Y_lm, V Y_lm'> = 2pi int g_{m-m'}(x) Theta_lm(x) Theta_lm'(x) dx, where
    # g_d = sum_k V_k[d] Theta_kd is the e^{id phi} mode of V; n nodes are
    # exact once 2n - 1 >= 2l + deg V
    LV = len(V) - 1
    x, w = np.polynomial.legendre.leggauss(l + LV // 2 + 8)
    P = _norm_legendre(max(l, LV), x)
    zero = np.zeros(len(x))
    g = np.zeros((len(x), 2 * LV + 1), dtype=complex)  # column LV + d holds g_d
    for k, c in enumerate(V):
        g[:, LV - k : LV + k + 1] += _assemble_rows(P[:, k, : k + 1], zero).real * _block(k, c)
    rows = _assemble_rows(P[:, l, : l + 1], zero).real
    M = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
    for d in range(-min(LV, 2 * l), min(LV, 2 * l) + 1):
        i = np.arange(max(d, 0), 2 * l + 1 + min(d, 0))  # rows m with |m - d| <= l
        # einsum sums the nodes in a fixed order, where a BLAS product's
        # order, and so its last bits, follows the thread count
        M[i, i - d] = 2.0 * math.pi * np.einsum("x,xm->m", w * g[:, LV + d], rows[:, i] * rows[:, i - d])
    return 0.5 * (M + M.conj().T)


def _is_zonal(V):
    for l, c in enumerate(V):
        mask = np.ones(2 * l + 1, dtype=bool)
        mask[l] = False
        if np.abs(_block(l, c)[mask]).max(initial=0.0) > 1e-14:
            return False
    return True


def radon_range(V):
    """[min, max] of the Radon transform sampled over the geodesic sphere.

    Zonal V gives a transform that depends on u3 only, sampled at
    _RADON_GRID heights; otherwise the normals form a heights x longitudes
    grid.
    """
    if _is_zonal(V):
        theta = np.arccos(np.linspace(-1.0, 1.0, _RADON_GRID))
        phi = np.zeros(_RADON_GRID)
    else:
        nt = max(41, int(math.isqrt(_RADON_GRID)))
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
    # NaN fails every comparison below, so it would drop out unseen
    if not (np.isfinite(pts).all() and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("points and interval ends must be finite")
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


def zonal_from_polynomial(a, L):
    """Spherical-harmonic coefficient list of a polynomial in cos(theta)."""
    check_integer("L", L, 0)
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
