import cmath
import math

import numpy as np
import pytest

from semiclab import experiments, lattice, torus
from semiclab._errors import NumericalSignal
from slow_references import density_moment, evaluate_on_grid

TWO_PI = 2.0 * math.pi


def shell25():
    return lattice.enumerate_shell(25, 2)


def test_eigenfunction_amplitudes_match_the_shell():
    # shell25 has 12 vectors; wigner would index past 11 or misread a longer vector
    for n in (11, 13):
        with pytest.raises(ValueError, match=f"{n} amplitudes for a shell of 12"):
            torus.TorusEigenfunction(shell25(), np.ones(n, dtype=complex))


def test_random_eigenfunction_normalized():
    psi = torus.random_eigenfunction(shell25(), 7)
    assert TWO_PI**2 * float((np.abs(psi.amplitudes) ** 2).sum()) == pytest.approx(1.0, abs=1e-12)
    assert psi.hbar == pytest.approx(1.0 / 5.0)
    assert psi.dimension == 2
    with pytest.raises(NumericalSignal, match="empty-shell"):
        torus.random_eigenfunction(lattice.enumerate_shell(3, 2), 0)


def test_random_eigenfunction_deterministic():
    a = torus.random_eigenfunction(shell25(), (1, 2))
    b = torus.random_eigenfunction(shell25(), (1, 2))
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_random_shell_basis_orthonormal():
    basis = torus.random_shell_basis(shell25(), 3)
    C = np.vstack([psi.amplitudes for psi in basis])
    gram = TWO_PI**2 * (C @ C.conj().T)
    assert np.abs(gram - np.eye(len(basis))).max() < 1e-12
    assert len(basis) == 12


def test_density_moment_symmetry():
    psi = torus.random_eigenfunction(shell25(), 5)
    for p in ((1, 7), (7, 1), (8, 6), (0, 0)):
        m = density_moment(psi, p)
        mc = density_moment(psi, (-p[0], -p[1]))
        assert m == pytest.approx(mc.conjugate(), abs=1e-15)
    assert density_moment(psi, (0, 0)) == pytest.approx(
        1.0 / TWO_PI**2, abs=1e-15
    )


def test_exact_l4_single_mode_flat():
    # one plane wave has constant modulus: integral of |psi|^4 is (2pi)^-2
    shell = lattice.enumerate_shell(1, 2)
    c = np.zeros(4, dtype=complex)
    c[0] = 1.0 / TWO_PI
    psi = torus.TorusEigenfunction(shell, c)
    assert torus.exact_l4(psi) == pytest.approx(1.0 / TWO_PI**2, abs=1e-15)


def test_exact_l4_grid_quadrature_cross_check():
    # |psi|^4 on shell m has modes up to 4*sqrt(m): the grid below is exact
    psi = torus.random_eigenfunction(shell25(), 11)
    G = 4 * math.isqrt(25) + 1
    vals = evaluate_on_grid(psi, G)
    quad = TWO_PI**2 * float((np.abs(vals) ** 4).mean())
    assert torus.exact_l4(psi) == pytest.approx(quad, abs=1e-14)


def test_exact_l4_bound_on_batch():
    bound = 3.0 / TWO_PI**2
    vals = torus.l4_batch(shell25(), 500, seed=123)
    assert vals.max() <= bound + 1e-12
    singles = [
        torus.exact_l4(torus.random_eigenfunction(shell25(), (9, i))) for i in range(5)
    ]
    assert all(v <= bound + 1e-12 for v in singles)


def test_l4_batch_matches_exact_l4():
    shell = lattice.enumerate_shell(65, 2)
    batch = torus.l4_batch(shell, 4, seed=(7, 65))
    for i in range(4):
        rng = np.random.default_rng((7, 65))
        C = rng.standard_normal((4, len(shell))) + 1j * rng.standard_normal(
            (4, len(shell))
        )
        psi = torus.TorusEigenfunction(
            shell, C[i] / (TWO_PI * np.linalg.norm(C[i]))
        )
        assert batch[i] == pytest.approx(torus.exact_l4(psi), rel=1e-12)


def test_l4_batch_matches_direct_moment_sum():
    # slow reference on the largest shell of the L4 sweep:
    # (2pi)^2 sum_p |density_moment(psi, p)|^2 over every difference p
    shell = lattice.enumerate_shell(5525, 2)
    assert len(shell) == 48
    batch = torus.l4_batch(shell, 2, seed=(42, 5525))
    rng = np.random.default_rng((42, 5525))
    C = rng.standard_normal((2, 48)) + 1j * rng.standard_normal((2, 48))
    V = np.asarray(shell.vectors)
    diffs = {tuple(d) for d in (V[:, None, :] - V[None, :, :]).reshape(-1, 2)}
    for i in range(2):
        psi = torus.TorusEigenfunction(shell, C[i] / (TWO_PI * np.linalg.norm(C[i])))
        direct = TWO_PI**2 * sum(abs(density_moment(psi, p)) ** 2 for p in diffs)
        assert batch[i] == pytest.approx(direct, rel=1e-12)


def test_l4_batch_rejects_empty_batch():
    with pytest.raises(ValueError, match="n_states"):
        torus.l4_batch(shell25(), 0, seed=0)


def test_exact_l4_dimension_guard():
    shell3 = lattice.enumerate_shell(1, 3)
    c = np.full(6, 1.0 / (math.sqrt(6) * TWO_PI ** 1.5), dtype=complex)
    psi = torus.TorusEigenfunction(shell3, c)
    with pytest.raises(NumericalSignal, match="unsupported-dimension"):
        torus.exact_l4(psi)
    with pytest.raises(NumericalSignal, match="unsupported-dimension"):
        torus.l4_batch(shell3, 2, seed=0)


def test_wigner_constant_and_momentum():
    psi = torus.random_eigenfunction(shell25(), 17)
    total = torus.wigner(psi, torus.TorusSymbol({(0, 0): complex(1.0)}))
    assert total == pytest.approx(1.0, abs=1e-12)
    # |xi|^2 evaluates to hbar^2 m = 1 on the shell
    kinetic = torus.wigner(psi, torus.TorusSymbol({(0, 0): lambda xi: xi[0] ** 2 + xi[1] ** 2}))
    assert kinetic == pytest.approx(1.0, abs=1e-12)


def test_wigner_matches_density_moment():
    psi = torus.random_eigenfunction(shell25(), 23)
    p = (1, 7)  # difference of (4,3) and (3,-4)... realized on the shell
    lhs = torus.wigner(psi, torus.exponential_symbol(p))
    rhs = TWO_PI**2 * density_moment(psi, (-p[0], -p[1]))
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_egorov_invariance_is_exact():
    psi = torus.random_eigenfunction(shell25(), 29)
    sym = torus.TorusSymbol({(1, 7): 0.8 + 0.1j, (0, 0): 0.3 + 0j, (2, 1): 1.0 + 0j})
    base = torus.wigner(psi, sym)
    for t in (1e-3, 1.0, 17.25, -123.0, 1e6):
        flowed = torus.egorov_conjugate(sym, t)
        assert torus.wigner(psi, flowed) == base
    assert torus.egorov_conjugate(sym, 0) is sym


def test_flow_profile_generic_phase():
    # off-shell pairs of a flowed symbol pick up e^{i t hbar p.mid}: (0, 0)
    # and (1, 0) lie on different circles, so p = (1, 0) has p.mid = 1/2
    shell = lattice.LatticeShell(2, 1, ((0, 0), (1, 0)))
    c = np.array([0.6 + 0.0j, 0.0 + 0.8j]) / TWO_PI
    psi = torus.TorusEigenfunction(shell, c)
    sym = torus.exponential_symbol((1, 0))
    plain = TWO_PI**2 * np.conj(c[1]) * c[0]
    assert torus.wigner(psi, sym) == pytest.approx(plain, abs=1e-15)
    flowed = torus.egorov_conjugate(sym, 1.5)
    expected = plain * cmath.exp(1j * 1.5 * psi.hbar / 2)
    assert torus.wigner(psi, flowed) == pytest.approx(expected, abs=1e-15)
    # flows compose by adding their times
    twice = torus.egorov_conjugate(torus.egorov_conjugate(sym, 0.5), 1.0)
    assert twice.t == 1.5
    assert torus.wigner(psi, twice) == torus.wigner(psi, flowed)
    # a flowed constant is not x-only
    flowed_constant = torus.egorov_conjugate(torus.TorusSymbol({(0, 0): 1.0 + 0j}), 1.0)
    assert not flowed_constant.is_x_only()
    with pytest.raises(ValueError, match="x-only"):
        torus.quantum_variance([psi], flowed_constant)


def test_check_04_pairs_have_no_flow_phase(monkeypatch):
    # a diagnosis, not a check: on a single-shell eigenfunction every pair
    # (k, k + p) that wigner visits has |k + p|^2 = |k|^2, so p.mid =
    # (|k + p|^2 - |k|^2) / 2 = 0 exactly and the flow phase is exactly 1;
    # check 4 cannot see the phase, which test_flow_profile_generic_phase
    # tests. A check 4 that reaches off-shell pairs fails this on purpose.
    calls = []
    wigner = torus.wigner

    def spy(psi, a):
        calls.append((psi, a))
        return wigner(psi, a)

    monkeypatch.setattr(torus, "wigner", spy)
    assert experiments.run_experiment("torus-egorov")["pass"]
    flowed_pairs = 0
    for psi, a in calls:
        idx = psi.shell.index()
        for p in a.terms:
            for k in psi.shell.vectors:
                if tuple(ka + pa for ka, pa in zip(k, p)) in idx:
                    mid = np.asarray(k, dtype=float) + np.asarray(p, dtype=float) / 2.0
                    assert float(np.dot(p, mid)) == 0.0, (k, p)
                    flowed_pairs += a.t != 0 and any(p)
    assert flowed_pairs > 0


def test_quantum_variance_cross_check():
    # against an explicit wigner loop over the same basis; momenta p reach
    # past every shell, and chords p of a shell have |p|^2 even, so the odd
    # ones never pair up; at M = 65 and 6, math.sqrt(M) rounds below the root
    a2 = torus.TorusSymbol({
        (1, 1): 0.3 + 0j, (2, 0): 0.2j, (1, -1): 0.1 - 0.05j, (4, 2): 0.07 + 0j,
        (0, 12): 0.05j, (3, -2): 0.2 + 0j, (0, 0): 5.0 + 0j,
    })
    a3 = torus.TorusSymbol({
        (1, 0, -1): 0.5 + 0j, (0, 2, 0): 0.25j, (-4, 0, 0): 0.1 - 0.1j, (0, 2, 1): 1.0 + 0j,
    })
    for M, n, a in ((25, 2, torus.cosine_symbol((1, 1), 1.0 / math.pi)), (65, 2, a2), (6, 3, a3)):
        basis = []
        for m in range(1, M + 1):
            shell = lattice.enumerate_shell(m, n)
            if len(shell):
                basis.extend(torus.random_shell_basis(shell, (5, m)))
        v = torus.quantum_variance(basis, a)
        mean = a.terms.get((0,) * n, 0.0)
        brute = np.mean([abs(torus.wigner(psi, a) - mean) ** 2 for psi in basis])
        assert v == pytest.approx(float(brute), rel=1e-10), (M, n)


def test_quantum_variance_guards():
    basis = torus.random_shell_basis(shell25(), 3)
    with pytest.raises(ValueError, match="states"):
        torus.quantum_variance(basis, torus.cosine_symbol((1, 1)))
    full = []
    for m in range(1, 3):
        shell = lattice.enumerate_shell(m, 2)
        if len(shell):
            full.extend(torus.random_shell_basis(shell, m))
    with pytest.raises(ValueError, match="x-only"):
        torus.quantum_variance(full, torus.TorusSymbol({(0, 0): lambda xi: xi[0]}))
    bad = [
        torus.TorusEigenfunction(psi.shell, psi.amplitudes * (1.2 if i == 0 else 1.0))
        for i, psi in enumerate(full)
    ]
    with pytest.raises(NumericalSignal, match="non-orthonormal-basis"):
        torus.quantum_variance(bad, torus.cosine_symbol((1, 1)))


def test_evaluate_on_grid_parseval():
    psi = torus.random_eigenfunction(shell25(), 43)
    vals = evaluate_on_grid(psi, 32)
    assert float((np.abs(vals) ** 2).mean()) == pytest.approx(
        1.0 / TWO_PI**2, abs=1e-13
    )
    with pytest.raises(ValueError):
        evaluate_on_grid(psi, 8)


def test_evaluate_on_grid_pointwise():
    # cross-check the FFT evaluation against a direct exponential sum
    psi = torus.random_eigenfunction(shell25(), 47)
    G = 21
    vals = evaluate_on_grid(psi, G)
    xs = TWO_PI * np.arange(G) / G
    direct = np.zeros((G, G), dtype=complex)
    for c, k in zip(psi.amplitudes, psi.shell.vectors):
        direct += c * np.exp(1j * (k[0] * xs[:, None] + k[1] * xs[None, :]))
    assert np.abs(vals - direct).max() < 1e-12
