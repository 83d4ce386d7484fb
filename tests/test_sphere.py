"""Spherical harmonics, equatorial concentration, and the geodesic Radon picture."""

import math

import numpy as np
import pytest
import scipy.special

from semiclab import sphere
from semiclab._errors import NumericalSignal
from slow_references import alpha_cos2, laplacian_diagonal

FOUR_PI = 4.0 * math.pi


def _scipy_ylm(l, m, theta, phi):
    # scipy >= 1.15 renamed sph_harm and swapped the angle convention
    fn = getattr(scipy.special, "sph_harm_y", None)
    if fn is not None:
        return complex(fn(l, m, theta, phi))
    return complex(scipy.special.sph_harm(m, l, phi, theta))


def test_sph_harm_row_matches_scipy():
    rng = np.random.default_rng(99)
    for l in range(6):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        row = sphere._assemble_rows(sphere._norm_legendre(l, np.cos(theta))[:, l, :], phi)[0]
        for m in range(-l, l + 1):
            ref = _scipy_ylm(l, m, theta, phi)
            assert abs(row[l + m] - ref) < 1e-12 * max(1.0, abs(ref))


def test_sph_harm_row_orthonormal_quadrature():
    # Gauss-Legendre in cos(theta) x uniform in phi integrates products of
    # harmonics up to the chosen bandwidth exactly
    L = 8
    x, w = np.polynomial.legendre.leggauss(L + 2)
    n_phi = 2 * L + 2
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(np.arccos(x), n_phi)
    pp = np.tile(phis, len(x))
    rows = [
        sphere._assemble_rows(sphere._norm_legendre(l, np.cos(tt))[:, l, :], pp)
        for l in range(L + 1)
    ]
    weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
    Y = np.hstack(rows)
    gram = Y.conj().T @ (weights[:, None] * Y)
    assert np.abs(gram - np.eye(Y.shape[1])).max() < 1e-12


def test_geodesic_point_validation():
    g = sphere.GeodesicPoint(np.array([0.0, 0.0, 1.0]))
    assert g.u.shape == (3,)
    with pytest.raises(ValueError):
        sphere.GeodesicPoint(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        sphere.GeodesicPoint(np.array([0.0, 0.0, 1.5]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sphere.GeodesicPoint(np.array([bad, 0.0, 0.0]))


def test_equator_concentration_closed_forms():
    for l in (5, 20, 200):
        m2 = sphere.equator_concentration(l, [0.0, 0.0, 1.0])
        assert math.isclose(m2, 1.0 / (2 * l + 3), rel_tol=1e-14)
        m4 = sphere.equator_concentration(l, [0.0, 0.0, 0.0, 0.0, 1.0])
        assert math.isclose(m4, 3.0 / ((2 * l + 3) * (2 * l + 5)), rel_tol=1e-14)
    # odd powers integrate to zero by symmetry
    assert sphere.equator_concentration(7, [0.0, 1.0, 0.0, 4.0]) == 0.0


def test_equator_concentration_against_quadrature():
    # direct integral of a(cos theta) |hw|^2 over the sphere
    l = 12
    a = [0.5, 0.0, -1.0, 0.0, 2.0]
    x, w = np.polynomial.legendre.leggauss(l + 6)
    # c_l^2 normalizes |hw|^2 = c_l^2 sin^{2l}(theta) to unit mass
    c2 = 1.0 / (2.0 * math.pi * float((w * (1.0 - x * x) ** l).sum()))
    av = np.polynomial.polynomial.polyval(x, np.asarray(a))
    direct = 2.0 * math.pi * c2 * float((w * av * (1.0 - x * x) ** l).sum())
    assert abs(direct - sphere.equator_concentration(l, a)) < 1e-14


def test_reproducing_kernel_diag():
    vals = sphere.reproducing_kernel_diags(120)
    assert len(vals) == 121
    for l in (0, 5, 30, 120):
        assert abs(vals[l] - (2 * l + 1) / FOUR_PI) < 1e-11 * (2 * l + 1)


def _reproducing_kernel_diag(l):
    # one degree at a time, from its own Legendre table
    rng = np.random.default_rng(314159)
    x = rng.uniform(-1.0, 1.0, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20)
    rows = sphere._assemble_rows(sphere._norm_legendre(l, x)[:, l, :], phi)
    return float((np.abs(rows) ** 2).sum(axis=1).mean())


def test_reproducing_kernel_diags_match_per_degree_tables():
    # row l of the recurrence does not depend on L, so one table at L = 100
    # gives every degree's values bitwise
    x = np.random.default_rng(314159).uniform(-1.0, 1.0, 20)
    full = sphere._norm_legendre(100, x)
    for l in range(101):
        assert np.array_equal(full[:, l, : l + 1], sphere._norm_legendre(l, x)[:, l, :]), l
    want = [_reproducing_kernel_diag(l) for l in range(101)]
    assert sphere.reproducing_kernel_diags(100) == want


def test_zonal_diagonal_matches_closed_form():
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    for l in (1, 7, 40):
        diag = sphere.band_compression(V, l).diagonal()
        assert np.abs(diag - alpha_cos2(l)).max() < 1e-12
    with pytest.raises(ValueError, match="l >= 1"):
        sphere.band_compression(V, 0)


def test_concentration_experiment_record():
    rec = sphere.concentration_experiment(8, [-1.0 / 3.0, 0.0, 1.0], trials=6, seed=4)
    assert rec["l"] == 8 and rec["trials"] == 6
    sups = np.asarray(rec["sup_deviations"])
    assert sups.shape == (6,) and (sups >= 0.0).all()
    assert rec["median_sup"] == float(np.median(sups))
    assert rec["threshold"] == 8.0 ** (-0.125)
    assert 0.0 <= rec["exceed_fraction"] <= 1.0
    rep = sphere.concentration_experiment(8, [-1.0 / 3.0, 0.0, 1.0], trials=6, seed=4)
    assert rep["sup_deviations"] == rec["sup_deviations"]


def test_concentration_experiment_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="zero spherical mean"):
        sphere.concentration_experiment(8, [1.0], trials=2, seed=0)
    with pytest.raises(ValueError):
        sphere.concentration_experiment(8, [0.0, 0.0, 1.0], trials=0, seed=0)


def test_concentration_experiment_rejects_degree_zero():
    with pytest.raises(ValueError, match="l >= 1"):
        sphere.concentration_experiment(0, [-1.0 / 3.0, 0.0, 1.0], trials=2, seed=0)


def test_quantum_average_projects_and_commutes():
    L = 4
    D = (L + 1) ** 2
    rng = np.random.default_rng(7)
    B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    A = sphere.quantum_average(B, L)
    assert np.array_equal(sphere.quantum_average(A, L), A)
    lam = np.diag(laplacian_diagonal(L))
    assert np.array_equal(A @ lam, lam @ A)
    # off-block entries are zeroed, diagonal blocks copied verbatim
    sl = sphere.block_slices(L)[2]
    assert np.array_equal(A[sl, sl], B[sl, sl])
    with pytest.raises(NumericalSignal, match="shape-mismatch"):
        sphere.quantum_average(B[:-1, :], L)


def test_band_compression_zonal_is_diagonal():
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    M = sphere.band_compression(V, 9)
    assert np.array_equal(M, M.conj().T)
    assert np.abs(M - np.diag(alpha_cos2(9))).max() < 1e-12
    with pytest.raises(ValueError):
        sphere.band_compression(V, 0)


def test_band_compression_matches_direct_quadrature():
    # slow reference: <Y_lm, V Y_lm'> as a double sum over Gauss-Legendre
    # nodes and equispaced longitudes, harmonics and V from scipy, for a
    # real V with every order m up to degree 4
    rng = np.random.default_rng(17)
    V = []
    for k in range(5):
        c = np.zeros(2 * k + 1, dtype=complex)
        c[k] = rng.standard_normal()
        for m in range(1, k + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[k + m] = z
            c[k - m] = (-1) ** m * z.conjugate()
        V.append(c)
    for l in (1, 4, 6):
        x, w = np.polynomial.legendre.leggauss(l + 4)
        n_phi = 2 * l + 6
        ref = np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
        for theta, wj in zip(np.arccos(x), w):
            for k in range(n_phi):
                phi = 2.0 * math.pi * k / n_phi
                y = np.array([_scipy_ylm(l, m, theta, phi) for m in range(-l, l + 1)])
                v = sum(c[k2 + m] * _scipy_ylm(k2, m, theta, phi)
                        for k2, c in enumerate(V) for m in range(-k2, k2 + 1))
                ref += (wj * 2.0 * math.pi / n_phi * v) * np.outer(y.conj(), y)
        M = sphere.band_compression(V, l)
        assert np.abs(M - ref).max() < 1e-12, l


def _real_coefficients(rng, L):
    # coefficient list of a real V with every order m up to degree L
    V = []
    for k in range(L + 1):
        c = np.zeros(2 * k + 1, dtype=complex)
        c[k] = rng.standard_normal()
        for m in range(1, k + 1):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c[k + m] = z
            c[k - m] = (-1) ** m * z.conjugate()
        V.append(c)
    return V


def test_band_compression_vanishes_past_the_bandwidth():
    # <Y_lm, V Y_lm'> = 0 exactly when |m - m'| exceeds deg V
    V = _real_coefficients(np.random.default_rng(3), 2)
    for l in (1, 2, 6):
        M = sphere.band_compression(V, l)
        ms = np.arange(-l, l + 1)
        far = np.abs(ms[:, None] - ms[None, :]) > 2
        assert np.all(M[far] == 0.0), l
        assert np.all(M[~far] != 0.0), l


def test_band_compression_rejects_malformed_block():
    V = [np.zeros(1, dtype=complex), np.zeros(2, dtype=complex)]
    with pytest.raises(ValueError, match="wrong length"):
        sphere.band_compression(V, 3)


def test_zonal_from_polynomial_round_trip():
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    assert len(V) == 5
    for l, c in enumerate(V):
        off = np.delete(np.asarray(c), l)
        assert np.abs(off).max(initial=0.0) == 0.0
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, math.pi, 9)
    vals = sphere.evaluate_coefficients(V, theta, np.zeros(9))
    assert np.abs(vals - np.cos(theta) ** 2).max() < 1e-12


def test_evaluate_coefficients_matches_blockwise_states():
    rng = np.random.default_rng(5)
    blocks = []
    for l in (1, 3):
        a = rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1)
        blocks.append(a / np.linalg.norm(a))
    V = [np.zeros(1, dtype=complex), blocks[0], np.zeros(5, dtype=complex), blocks[1]]
    theta = rng.uniform(0.1, math.pi - 0.1, 5)
    phi = rng.uniform(0.0, 2.0 * math.pi, 5)
    vals = sphere.evaluate_coefficients(V, theta, phi)
    for i in range(5):
        direct = sum(
            c[l + m] * _scipy_ylm(l, m, theta[i], phi[i])
            for l, c in ((1, blocks[0]), (3, blocks[1]))
            for m in range(-l, l + 1)
        )
        assert abs(vals[i] - direct) < 1e-13
    with pytest.raises(ValueError, match="wrong length"):
        sphere.evaluate_coefficients([np.zeros(2)], theta, phi)


def test_radon_transform_of_zonal_quadratic():
    # averaging cos^2(theta) over the circle normal to u gives (1 - u3^2)/2
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    rng = np.random.default_rng(21)
    for _ in range(6):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        val = float(sphere._radon_at_normals(V, sphere.GeodesicPoint(u).u[None, :])[0])
        assert abs(val - 0.5 * (1.0 - u[2] ** 2)) < 1e-12


def test_radon_range_zonal_quadratic():
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    lo, hi = sphere.radon_range(V)
    assert abs(lo - 0.0) < 1e-12 and abs(hi - 0.5) < 1e-12


def test_radon_flow_preserves_zonal_height():
    # for zonal V the averaged Hamiltonian depends on u3 only, so the flow
    # rotates about the poles and u3 is conserved
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    g0 = sphere.GeodesicPoint(np.array([0.8, 0.0, 0.6]))
    g1 = sphere.radon_flow(V, g0, 2.5)
    assert abs(np.linalg.norm(g1.u) - 1.0) < 1e-9
    assert abs(g1.u[2] - 0.6) < 1e-8
    assert sphere.radon_flow(V, g0, 0) is g0


def test_radon_flow_rejects_nonfinite_time():
    # a non-finite t would double the RK4 steps up to 2**16 before failing
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    g0 = sphere.GeodesicPoint(np.array([0.8, 0.0, 0.6]))
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite t"):
            sphere.radon_flow(V, g0, t)


def test_radon_flow_matches_closed_form_rotation():
    # for V = cos^2(theta) the Radon average is (1 - u3^2)/2, so u' = grad R x u
    # turns u about the pole by the angle -u3 t
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
    for u, t in (((0.8, 0.0, 0.6), 2.5), ((0.0, -0.6, 0.8), 4.0)):
        g1 = sphere.radon_flow(V, sphere.GeodesicPoint(np.array(u)), t)
        r, phi0 = math.hypot(u[0], u[1]), math.atan2(u[1], u[0])
        phi = phi0 - u[2] * t
        assert np.abs(g1.u - [r * math.cos(phi), r * math.sin(phi), u[2]]).max() < 1e-9


def test_radon_flow_conserves_energy():
    # real non-zonal observable: Y_{2,1} - Y_{2,-1}
    V = [np.zeros(1, dtype=complex), np.zeros(3, dtype=complex),
         np.array([0.0, -1.0, 0.0, 1.0, 0.0], dtype=complex)]
    g0 = sphere.GeodesicPoint(np.array([0.48, 0.6, 0.64]))
    h0 = float(sphere._radon_at_normals(V, g0.u[None, :])[0])
    g1 = sphere.radon_flow(V, g0, 1.5)
    h1 = float(sphere._radon_at_normals(V, g1.u[None, :])[0])
    assert abs(np.linalg.norm(g1.u) - 1.0) < 1e-9
    assert abs(h1 - h0) < 1e-8
    assert np.abs(g1.u - g0.u).max() > 1e-3  # the point actually moved


def test_band_spectrum_vs_radon_record():
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    lo, hi = sphere.radon_range(V)
    eigs = np.linalg.eigvalsh(sphere.band_compression(V, 10))
    assert np.all(np.diff(eigs) >= 0.0)
    assert np.abs(np.sort(alpha_cos2(10)) - eigs).max() < 1e-12
    assert abs(lo) < 1e-12 and abs(hi - 0.5) < 1e-12
    assert sphere.hausdorff_to_interval(eigs, lo, hi) <= 3.0 / 10.0


def test_hausdorff_to_interval_rejects_non_finite():
    # a NaN point fails every comparison, so it used to drop out and give 0.0
    for points, lo, hi in (([0.1, math.nan], 0.0, 1.0), ([0.1, math.inf], 0.0, 1.0),
                           ([0.1], math.nan, 1.0), ([0.1], 0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            sphere.hausdorff_to_interval(points, lo, hi)


def test_hausdorff_to_interval_hand_cases():
    assert sphere.hausdorff_to_interval([0.0, 0.5], 0.0, 0.5) == 0.25
    assert sphere.hausdorff_to_interval([0.25], 0.0, 1.0) == 0.75
    assert sphere.hausdorff_to_interval([1.5], 0.0, 1.0) == 1.5
    assert sphere.hausdorff_to_interval([0.0, 0.25, 0.5, 0.75, 1.0], 0.0, 1.0) == 0.125
    with pytest.raises(ValueError, match="empty interval"):
        sphere.hausdorff_to_interval([0.0], 1.0, 0.0)
    with pytest.raises(ValueError, match="empty point set"):
        sphere.hausdorff_to_interval([], 0.0, 1.0)


def test_laplacian_diagonal_and_blocks():
    d = laplacian_diagonal(3)
    assert d.shape == (16,)
    assert d[0] == 0.0 and d[1] == 2.0 and d[15] == 12.0
    sls = sphere.block_slices(3)
    assert [s.stop - s.start for s in sls] == [1, 3, 5, 7]
    assert sls[-1].stop == 16


def _norm_legendre_loops(L, x):
    # the table by the plain double loop over (m, l), one order at a time
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
    for m in range(L + 1):
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            P[:, l, m] = a * (x * P[:, l - 1, m] - b * P[:, l - 2, m])
    return P


def test_norm_legendre_matches_double_loop_bitwise():
    rng = np.random.default_rng(2718)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 20), [-1.0, 0.0, 1.0]])
    for L in list(range(101)) + [200]:
        assert np.array_equal(sphere._norm_legendre(L, x), _norm_legendre_loops(L, x)), L


def _radon_value(coeffs, u):
    # slow reference: average over 4L + 8 uniform nodes of the great circle
    # normal to u, exact for band-limited integrands; the frame anchors on e3
    # unless u is within arccos(0.9) of a pole
    L = len(coeffs) - 1
    n = 4 * L + 8
    anchor = np.array([0.0, 0.0, 1.0]) if abs(u[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(u, anchor)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    s = 2.0 * math.pi * np.arange(n) / n
    pts = np.outer(np.cos(s), e1) + np.outer(np.sin(s), e2)
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    return complex(sphere.evaluate_coefficients(coeffs, theta, phi).mean())


def _random_real_coeffs(L, rng):
    # c_{l,-m} = (-1)^m conj(c_{l,m}) makes the function real
    V = []
    for l in range(L + 1):
        pos = rng.standard_normal(l + 1) + 1j * rng.standard_normal(l + 1)
        pos[0] = pos[0].real
        c = np.empty(2 * l + 1, dtype=complex)
        c[l:] = pos
        c[:l] = (((-1.0) ** np.arange(1, l + 1)) * pos[1:].conj())[::-1]
        V.append(c)
    return V


def test_legendre_at_zero_matches_numpy_legendre():
    p0 = sphere._legendre_at_zero(40)
    for l in range(41):
        ref = np.polynomial.legendre.Legendre.basis(l)(0.0)
        assert abs(p0[l] - ref) < 1e-15, l
        if l % 2:
            assert p0[l] == 0.0


def test_funk_hecke_against_circle_quadrature():
    rng = np.random.default_rng(1978)
    for L in (0, 1, 2, 5, 8):
        V = _random_real_coeffs(L, rng)
        normals = [rng.standard_normal(3) for _ in range(8)]
        normals += [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
        # both sides of the reference's anchor switch at |u3| = 0.9
        for u3 in (0.9 - 1e-9, 0.9 + 1e-9, -0.9 - 1e-9, -0.9 + 1e-9):
            p = rng.uniform(0.0, 2.0 * math.pi)
            r = math.sqrt(1.0 - u3 * u3)
            normals.append(np.array([r * math.cos(p), r * math.sin(p), u3]))
        for u in normals:
            u = u / np.linalg.norm(u)
            ref = _radon_value(V, u)
            assert abs(ref.imag) < 1e-13
            got = float(sphere._radon_at_normals(V, sphere.GeodesicPoint(u).u[None, :])[0])
            assert abs(got - ref.real) < 1e-13, (L, u)


def test_radon_range_non_zonal_against_quadrature():
    rng = np.random.default_rng(1977)
    V = _random_real_coeffs(4, rng)
    assert not sphere._is_zonal(V)
    # the default grid: 44 heights x 88 longitudes of normals
    nt = 44
    vals = []
    for t in np.linspace(-1.0, 1.0, nt):
        r = math.sqrt(max(0.0, 1.0 - t * t))
        for p in np.linspace(0.0, 2.0 * math.pi, 2 * nt + 1)[:-1]:
            vals.append(_radon_value(V, np.array([r * math.cos(p), r * math.sin(p), t])).real)
    lo, hi = sphere.radon_range(V)
    assert abs(lo - min(vals)) < 1e-13 and abs(hi - max(vals)) < 1e-13


def test_radon_range_evaluates_once(monkeypatch):
    calls = []
    evaluate = sphere.evaluate_coefficients

    def spy(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(sphere, "evaluate_coefficients", spy)
    zonal = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    sphere.radon_range(zonal)
    assert len(calls) == 1
    sphere.radon_range(_random_real_coeffs(3, np.random.default_rng(0)))
    assert len(calls) == 2
