"""Quantized cat maps: translations, propagators, periods, scars, partitions."""

import cmath
import math
import tracemalloc
import types

import numpy as np
import pytest

from semiclab import catmap, experiments
from semiclab._errors import NumericalSignal
from slow_references import partition_norm

A = catmap.CatMap(2, 1, 1, 1)
CHI = math.log((3.0 + math.sqrt(5.0)) / 2.0)


def test_catmap_validation():
    with pytest.raises(ValueError, match="determinant"):
        catmap.CatMap(2, 1, 1, 2)
    assert A.trace == 3 and A.is_hyperbolic()
    assert A.matrix() == ((2, 1), (1, 1))
    shear = catmap.CatMap(1, 1, 0, 1)
    assert not shear.is_hyperbolic()
    with pytest.raises(NumericalSignal, match="non-hyperbolic"):
        shear.lyapunov_exponent()
    with pytest.raises(NumericalSignal, match="non-hyperbolic"):
        catmap.propagator(shear, 8)


def test_lyapunov_exponent():
    assert abs(A.lyapunov_exponent() - CHI) < 1e-14
    # power iteration on the matrix recovers the same growth rate
    M = np.array(A.matrix(), dtype=float)
    v = np.array([1.0, 0.0])
    for _ in range(40):
        v = M @ v
        v /= np.linalg.norm(v)
    rate = math.log(np.linalg.norm(M @ v))
    assert abs(rate - CHI) < 1e-12


def test_torus_phase_state_validation():
    v = np.zeros(5, dtype=complex)
    v[0] = 1.0
    catmap.TorusPhaseState(v)
    with pytest.raises(ValueError, match="unit norm"):
        catmap.TorusPhaseState(2.0 * v)
    nan = v.copy()
    nan[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        catmap.TorusPhaseState(nan)


def test_translation_unitary():
    for m in ((0, 0), (1, 0), (0, 1), (3, 5), (-2, 7)):
        T = catmap.translation_operator(9, m)
        assert np.abs(T @ T.conj().T - np.eye(9)).max() < 1e-13
    assert np.array_equal(catmap.translation_operator(6, (0, 0)), np.eye(6))
    with pytest.raises(ValueError):
        catmap.translation_operator(0, (1, 1))


def test_translation_composition_and_commutation():
    N = 7
    for a, b in (((1, 2), (3, 1)), ((0, 1), (1, 0)), ((2, -1), (4, 3))):
        Ta = catmap.translation_operator(N, a)
        Tb = catmap.translation_operator(N, b)
        w = a[0] * b[1] - a[1] * b[0]
        Tsum = catmap.translation_operator(N, (a[0] + b[0], a[1] + b[1]))
        assert np.abs(Ta @ Tb - np.exp(1j * np.pi * w / N) * Tsum).max() < 1e-13
        assert np.abs(Ta @ Tb - np.exp(2j * np.pi * w / N) * (Tb @ Ta)).max() < 1e-13


def test_propagator_unitary_and_word():
    Q = catmap.propagator(A, 21)
    assert Q.N == 21 and Q.cat == A
    assert np.abs(Q.U @ Q.U.conj().T - np.eye(21)).max() < 1e-12
    assert catmap._word_matrix(Q.word) == A.matrix()
    # the record built without the dense matrix builds the same one on first use
    assert np.array_equal(catmap.QuantizedCatMap(A, 21).U, Q.U)
    with pytest.raises(ValueError):
        catmap.propagator(A, 0)


def test_quantized_cat_map_checks_its_input():
    for N in (0, -3):
        with pytest.raises(ValueError, match="need N >= 1"):
            catmap.QuantizedCatMap(A, N)
    for B in (catmap.CatMap(1, 1, 0, 1), catmap.CatMap(2, 1, -1, 0), catmap.CatMap(1, 0, 0, 1)):
        with pytest.raises(NumericalSignal, match="non-hyperbolic"):
            catmap.QuantizedCatMap(B, 8)


def test_propagator_egorov_exact():
    # U* T(m) U = theta T(Am) with |theta| = 1, to rounding
    N = 21
    Q = catmap.propagator(A, N)
    for m in ((1, 0), (0, 1), (1, 1), (2, -3), (5, 4)):
        V = Q.U.conj().T @ catmap.translation_operator(N, m) @ Q.U
        Am = (A.a * m[0] + A.b * m[1], A.c * m[0] + A.d * m[1])
        TAm = catmap.translation_operator(N, Am)
        theta = np.trace(TAm.conj().T @ V) / N
        assert abs(abs(theta) - 1.0) < 1e-12
        assert np.abs(V - theta * TAm).max() < 1e-10


def test_apply_propagator_matches_dense():
    N = 34
    Q = catmap.propagator(A, N)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.abs(catmap.apply_propagator(Q, v) - Q.U @ v).max() < 1e-12


def test_apply_propagator_rejects_wrong_length():
    Q = catmap.propagator(A, 8)
    for v in (np.ones(1), np.ones(7), np.ones((3, 9)), np.ones((8, 1)), np.array(1.0)):
        with pytest.raises(ValueError, match="N = 8"):
            catmap.apply_propagator(Q, v)


def _dft(N):
    # slow reference: the unitary DFT, entry by entry
    j = np.arange(N)
    return np.exp(-2j * np.pi * np.outer(j, j) / N) / math.sqrt(N)


def _generator_product(word, N, X):
    # slow reference: the dense generators applied one by one, innermost first
    out = X.T.astype(complex)
    for g, c in word:
        out = (_dft(N) if g == "J" else np.diag(catmap._shear_diag(N, c))) @ out
    return out.T


J = ("J", None)
# J^2 and J^5 runs, and shears made adjacent by a J^4 run: _decompose gives a
# hyperbolic map only J and J^3 runs, but the compiled word folds any word
FOLD_WORD = (("S", 3), J, J, ("S", -1), J, J, J, J, ("S", 2), J, J, J, J, J, ("S", 0))


@pytest.mark.parametrize("cat, word, n_steps", [
    (A, None, 3),                                # S J J J S
    (catmap.CatMap(5, 2, 2, 1), None, 4),        # S J S J J J, ends on a J^3 run
    (catmap.CatMap(3, 1, 2, 1), None, 5),        # S J S J S
    (A, FOLD_WORD, 5),                           # S J^2 S(J^4)S J^5 S
])
def test_compiled_word_matches_generator_product(cat, word, n_steps):
    word = catmap._decompose(cat.matrix()) if word is None else word
    rng = np.random.default_rng(11)
    for N in list(range(1, 65)) + [105, 120, 420, 504]:
        Q = types.SimpleNamespace(N=N, word=word, steps=catmap._compile_word(word, N))
        assert len(Q.steps) == n_steps
        X = rng.standard_normal((3, N)) + 1j * rng.standard_normal((3, N))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Y = catmap.apply_propagator(Q, X)
        ref = _generator_product(word, N, X)
        assert np.abs(Y - ref).max() < 1e-12, N
        assert np.array_equal(catmap.apply_propagator(Q, X[1]), Y[1]), N
        # the word's product on the dilation blocks, which quantum_period
        # powers, against the dense generator product on an explicit basis
        blocks = catmap.QuantizedCatMap.blocks.func(Q)
        want = _dilation_fold(_generator_product(word, N, np.eye(N)).T)
        assert [len(b) for b in blocks] == [len(w) for w in want], N
        for got, ref in zip(blocks, want):
            assert np.abs(got - ref).max(initial=0.0) < 1e-12, N


def _brute_period(Amat, N):
    M = np.eye(2, dtype=np.int64)
    B = np.array(Amat, dtype=np.int64) % N
    for t in range(1, 16 * N * N + 65):
        M = (M @ B) % N
        if np.array_equal(M, np.eye(2, dtype=np.int64)):
            return t
    raise AssertionError("no period found")


@pytest.mark.parametrize("cat", [A, catmap.CatMap(5, 2, 2, 1), catmap.CatMap(3, 1, 2, 1)])
def test_dense_u_matches_generator_product(cat):
    for N in list(range(1, 65)) + [127, 128, 255, 256, 511, 512]:
        Q = catmap.QuantizedCatMap(cat, N)
        ref = _generator_product(Q.word, N, np.eye(N)).T
        assert np.abs(Q.U - ref).max() < 1e-12, N


def test_classical_period():
    # every N <= 200 covers 2N for every N <= 100, the modulus of the bound
    # on the quantum period
    for B in (A, catmap.CatMap(5, 2, 2, 1), catmap.CatMap(3, 1, 2, 1)):
        for N in range(2, 201):
            assert catmap.classical_period_mod(B, N) == _brute_period(B.matrix(), N), (B, N)
    assert catmap.classical_period_mod(A, 1) == 1
    assert catmap.classical_period_mod(A, 5) == 10
    assert catmap.classical_period_mod(A, 13) == 14
    assert catmap.classical_period_mod(A, 21) == 8
    with pytest.raises(ValueError):
        catmap.classical_period_mod(A, 0)


def _prime_factors(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}


def _dense_power(U, t):
    # slow reference: the full dense U^t, its trace phase and its distance
    # from that scalar
    P = np.linalg.matrix_power(U, t)
    s = np.trace(P) / len(U)
    return s / abs(s), float(np.abs(P - s * np.eye(len(U))).max())


def test_quantum_period_small():
    # the times at which U^t is scalar are the multiples of the period, so
    # the period is the smallest one exactly when U^(period / p) is not
    # scalar for each prime p dividing it
    expect = {5: 10, 13: 14, 55: 10}
    for N in list(range(1, 65)) + [127, 128, 255, 256]:
        Q = catmap.QuantizedCatMap(A, N)
        rec = catmap.quantum_period(Q)
        T = rec["period"]
        assert T == expect.get(N, T), N
        assert rec["classical_period"] == catmap.classical_period_mod(A, N)
        assert T % rec["classical_period"] == 0, N
        assert abs(abs(rec["phase"]) - 1.0) < 1e-12
        U = _generator_product(Q.word, N, np.eye(N)).T
        phase, dev = _dense_power(U, T)
        assert dev < 1e-8, N
        assert abs(rec["phase"] - phase) < 1e-12, N
        for p in _prime_factors(T):
            assert _dense_power(U, T // p)[1] > 1e-8, (N, p)


def test_period_phases_are_eighth_roots():
    # U^T is a product of normalized quadratic Gauss sums times I, so its
    # phase is an 8th root of unity zeta8^k: k = 0 at N = 1 mod 8, k in
    # {0, 4} at N = 5 mod 8, and odd k only at even N
    for N in range(1, 129):
        phase = catmap.quantum_period(catmap.propagator(A, N))["phase"]
        k = round(cmath.phase(phase) / (math.pi / 4)) % 8
        assert abs(phase - cmath.exp(1j * math.pi * k / 4)) < 1e-8, N
        if N % 8 == 1:
            assert k == 0, N
        if N % 8 == 5:
            assert k in (0, 4), N
        if k % 2:
            assert N % 2 == 0, N


def _oracle_phase(N, t):
    # the integer oracle of the period table of A: at t = the classical
    # period mod N, U^t is zeta8^k I with k = 3t(1 - N) + 4 [N = 4 mod 8 and
    # t odd] mod 8. The 3 counts the J in A's word, and zeta8^(1 - N) is the
    # shear's normalized Gauss sum; the sign rule at N = 4 mod 8 is measured,
    # not derived.
    k = 3 * t * (1 - N) + 4 * (N % 8 == 4 and t % 2 == 1)
    return cmath.exp(1j * math.pi * (k % 8) / 4)


def test_dense_period_matches_the_integer_oracle():
    for N in range(1, 129):
        rec = catmap.quantum_period(catmap.QuantizedCatMap(A, N))
        t = catmap.classical_period_mod(A, N)
        assert rec["period"] == t, N
        assert abs(rec["phase"] - _oracle_phase(N, t)) < 1e-8, N


def test_matrix_free_period_matches_the_integer_oracle():
    for N in catmap.FNDB_ADMISSIBLE_LARGE:
        t, phase = catmap._matrix_free_period(catmap.QuantizedCatMap(A, N))
        assert t == catmap.classical_period_mod(A, N), N
        assert abs(phase - _oracle_phase(N, t)) < 1e-8, N


@pytest.mark.parametrize("cat, n_j", [
    (catmap.CatMap(5, 2, 2, 1), 4),
    (catmap.CatMap(3, 1, 2, 1), 2),
    (catmap.CatMap(2, 3, 1, 2), 3),
    (catmap.CatMap(7, 2, 3, 1), 4),
])
def test_odd_n_power_is_the_weil_scalar(cat, n_j):
    # at odd N the shears are those of the Weil representation of SL2(Z/N),
    # a true representation (Kurlberg-Rudnick, Duke Math. J. 103, 2000), so
    # U^t at the classical period t is one Gauss-sum phase per J of the word
    for N in range(1, 64, 2):
        Q = catmap.QuantizedCatMap(cat, N)
        assert sum(g == "J" for g, _ in Q.word) == n_j
        t = catmap.classical_period_mod(cat, N)
        zeta = cmath.exp(1j * math.pi * (n_j * t * (1 - N) % 8) / 4)
        P = np.linalg.matrix_power(Q.U, t)
        assert np.abs(P - zeta * np.eye(N)).max() < 1e-8, N


def _parity_basis(N):
    # slow reference: the orthonormal parity bases, entry by entry
    even, odd = [], []
    for j in range(N // 2 + 1):
        col = np.zeros(N)
        col[j] += 1.0
        col[(N - j) % N] += 1.0
        even.append(col / np.linalg.norm(col))
        if 0 < j < N - j:
            col = np.zeros(N)
            col[j], col[N - j] = 1.0, -1.0
            odd.append(col / math.sqrt(2.0))
    return np.array(even).reshape(-1, N).T, np.array(odd).reshape(-1, N).T


def _parity_fold(M):
    # slow reference: M on the parity-even basis e_0, (e_j + e_-j)/sqrt2 for
    # 0 < j < N/2 and e_{N/2} for even N, and on the parity-odd basis
    # (e_j - e_-j)/sqrt2, folded rows first, then columns; the part of M that
    # maps one parity to the other is dropped
    N = len(M)
    j = np.arange(N // 2 + 1)
    k = np.arange(1, (N + 1) // 2)
    c = np.where(j == -j % N, 0.5, math.sqrt(0.5))
    even = M[j] + M[-j % N]
    odd = M[k] - M[N - k]
    even = even.take(j, axis=1) + even.take(-j % N, axis=1)
    return c[:, None] * even * c, 0.5 * (odd.take(k, axis=1) - odd.take(N - k, axis=1))


def _dilation_group(N):
    # slow reference: the residues mod N of the odd x with x^2 = 1 mod 2N
    return sorted({x % N for x in range(1, 2 * N, 2) if x * x % (2 * N) == 1})


def _character_basis(N):
    # slow reference: an orthonormal basis of each joint eigenspace of the
    # dilations, entry by entry. The characters are labelled as in
    # catmap._dilations, whose element h_b is the product of the generators
    # set in b: chi(h_b) = (-1)^popcount(b & c) and chi(-x) = parity chi(x).
    # Parity +1 first, then characters c in order, then orbit minima j.
    h = catmap._dilations(N).tolist()
    bases = []
    for parity in (1, -1):
        for c in range(len(h)):
            cols = []
            for j in range(N):
                if j != min(x * j % N for x in _dilation_group(N)):
                    continue
                col = np.zeros(N)
                for b, x in enumerate(h):
                    chi = (-1) ** bin(b & c).count("1")
                    col[x * j % N] += chi
                    col[-x * j % N] += parity * chi
                if np.linalg.norm(col) > 0.5:
                    cols.append(col / np.linalg.norm(col))
            if cols:
                bases.append(np.array(cols).T)
    return bases


def _dilation_fold(M):
    # slow reference: V^T M V on each basis of _character_basis
    return [V.T @ M @ V for V in _character_basis(len(M))]


@pytest.mark.parametrize("N, order", [(15, 4), (24, 4), (105, 8), (120, 8), (420, 16), (504, 8)])
def test_dilation_blocks_match_an_explicit_basis(N, order):
    group = _dilation_group(N)
    assert len(group) == order
    # the elements h_b and their negatives are the group, each once
    h = catmap._dilations(N)
    assert sorted(np.concatenate([h, -h % N]).tolist()) == group
    S = np.hstack(_character_basis(N))
    assert S.shape == (N, N) and np.abs(S.T @ S - np.eye(N)).max() < 1e-14, N
    for cat in (A, catmap.CatMap(5, 2, 2, 1), catmap.CatMap(3, 1, 2, 1)):
        Q = catmap.QuantizedCatMap(cat, N)
        assert sum(len(B) for B in Q.blocks) == N
        for x in group:
            # the dilation j -> xj mod N as a permutation matrix
            D = np.zeros((N, N))
            D[x * np.arange(N) % N, np.arange(N)] = 1.0
            assert np.abs(D @ Q.U - Q.U @ D).max() < 1e-12, (N, x)


def test_parity_blocks_match_an_explicit_basis():
    rng = np.random.default_rng(17)
    for N in (1, 2, 3, 4, 7, 8, 21):
        Se, So = _parity_basis(N)
        S = np.hstack([Se, So])
        assert S.shape == (N, N) and np.abs(S.T @ S - np.eye(N)).max() < 1e-15
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        even, odd = _parity_fold(M)
        assert even.shape == (Se.shape[1],) * 2 and odd.shape == (So.shape[1],) * 2
        assert np.abs(even - Se.T @ M @ Se).max() < 1e-14, N
        assert np.abs(odd - So.T @ M @ So).max(initial=0.0) < 1e-14, N


def test_parity_mixing_matches_the_mirrored_matrix():
    rng = np.random.default_rng(23)
    for N in (1, 2, 3, 4, 7, 8, 21):
        r = -np.arange(N) % N
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        assert catmap._parity_mixing(M[-1]) == np.abs(M[-1] - M[-1][r]).max(), N
        # a diagonal that commutes with the parity does not mix
        assert catmap._parity_mixing(M[-1] + M[-1][r]) == 0.0, N


def test_parity_mixing_propagator_raises(monkeypatch):
    N = 21
    rec = catmap.quantum_period(catmap.QuantizedCatMap(A, N))
    assert rec["period"] == catmap.quantum_period(catmap.propagator(A, N))["period"]
    shear = catmap._shear_diag

    def mixing_shear(N, c):
        d = shear(N, c)
        d[2] += 1e-9
        return d

    monkeypatch.setattr(catmap, "_shear_diag", mixing_shear)
    with pytest.raises(NumericalSignal, match="parity-mixing"):
        catmap.quantum_period(catmap.QuantizedCatMap(A, N))

    # even under the parity, but not under the dilation j -> 8j mod 21,
    # which maps 2 to 16
    def dilation_mixing_shear(N, c):
        d = shear(N, c)
        d[[2, N - 2]] += 1e-9
        return d

    monkeypatch.setattr(catmap, "_shear_diag", dilation_mixing_shear)
    with pytest.raises(NumericalSignal, match="parity-mixing"):
        catmap.quantum_period(catmap.QuantizedCatMap(A, N))


def _assert_fourier_blocks_bitwise(N):
    # the fold of the DFT's distinct products against the row-then-column
    # fold of the elementwise DFT, bit for bit, and its mixing part against
    # the mirrored matrix
    F = _dft(N)
    r = -np.arange(N) % N
    *blocks, mixing = catmap._fourier_blocks(N)
    for got, ref in zip(blocks, _parity_fold(F)):
        assert got.dtype == ref.dtype and got.shape == ref.shape, N
        assert np.array_equal(got.view(np.float64), ref.view(np.float64)), N
    assert mixing == np.abs(F - F[r][:, r]).max(), N


@pytest.mark.parametrize("N", [1, 2, 3, 97, 256, 511, 512])
def test_fourier_is_bitwise_the_elementwise_formula(N):
    _assert_fourier_blocks_bitwise(N)


def test_fourier_blocks_build_no_full_size_array():
    # the blocks take the DFT's three quarter grids, never the N x N DFT: a
    # build that gathers it from an (N - 1)^2 table and folds it with
    # full-size temporaries peaks at about 11 MB at N = 512. At 504 and 510,
    # whose dilation groups have order 8, the character fold runs too.
    for N in (512, 504, 510):
        tracemalloc.start()
        try:
            catmap.QuantizedCatMap(A, N).blocks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (N, peak)
    for N in list(range(1, 65)) + [127, 128, 255, 256, 511, 512]:
        _assert_fourier_blocks_bitwise(N)


def test_matrix_free_period_matches_dense():
    for N in (18, 19, 24, 36, 38):
        Q = catmap.propagator(A, N)
        t, phase = catmap._matrix_free_period(Q)
        rec = catmap.quantum_period(Q)
        assert t == rec["period"]
        assert abs(phase - rec["phase"]) < 1e-8


def test_not_admissible_raises():
    with pytest.raises(NumericalSignal, match="not-admissible"):
        catmap.scar_record(A, 311)


def test_scar_record_rejects_bad_n():
    for N in (0, -3):
        with pytest.raises(ValueError, match="need N >= 1"):
            catmap.scar_record(A, N)


def test_scar_record_builds_no_dense_matrix(monkeypatch):
    def no_dense(N):
        raise AssertionError("dense DFT built")

    monkeypatch.setattr(catmap, "_fourier_blocks", no_dense)
    assert catmap.scar_record(A, 504)["period"] == 24


def test_quantum_period_builds_no_dense_matrix(monkeypatch):
    def no_dense(Q):
        raise AssertionError("dense U built")

    monkeypatch.setattr(catmap.QuantizedCatMap, "U", property(no_dense))
    assert catmap.quantum_period(catmap.QuantizedCatMap(A, 55))["period"] == 10
    assert catmap.quantum_period(catmap.QuantizedCatMap(A, 504))["period"] == 24


def test_quantum_period_not_found_names_its_bound():
    # no power of diag(e^{ik}) is scalar, so every candidate up to
    # 4 * classical_period_mod(A, 2N) is tried and refused
    Q = types.SimpleNamespace(cat=A, N=5, blocks=(np.diag(np.exp(1j * np.arange(5))),))
    bound = 4 * catmap.classical_period_mod(A, 10)
    with pytest.raises(NumericalSignal, match=f"period-not-found.*below {bound}$"):
        catmap.quantum_period(Q)


def test_dense_u_and_partitions_need_no_parity_blocks(monkeypatch):
    # U is the compiled word applied to the identity; only quantum_period
    # reads the blocks
    def no_blocks(N):
        raise AssertionError("parity blocks built")

    monkeypatch.setattr(catmap, "_fourier_blocks", no_blocks)
    Q = catmap.propagator(A, 233)
    assert np.abs(Q.U @ Q.U.conj().T - np.eye(233)).max() < 1e-12
    assert experiments.run_experiment("partition-decay")["pass"]


def test_coherent_state_shape():
    s = catmap.TorusPhaseState(catmap._coherent_array(100, 0.3, 0.7))
    assert int(np.argmax(np.abs(s.amplitudes))) == 30
    # distant centers are nearly orthogonal
    t = catmap.TorusPhaseState(catmap._coherent_array(100, 0.8, 0.2))
    assert abs(np.vdot(s.amplitudes, t.amplitudes)) < 1e-10


def test_husimi_normalization_and_ball_mass():
    s = catmap.TorusPhaseState(catmap._coherent_array(100, 0.3, 0.7))
    H = catmap.husimi(s, 64)
    assert H.shape == (64, 64) and (H >= 0.0).all()
    assert abs(H.sum() / 64**2 - 1.0) < 1e-10
    # a torus ball of radius > diameter/2 captures everything
    assert abs(catmap.mass_in_ball(H, (0.11, 0.87), 0.75) - H.sum() / 64**2) < 1e-14
    # the packet is concentrated at its center
    assert catmap.mass_in_ball(H, (0.3, 0.7), 0.1) > 0.9
    assert catmap.mass_in_ball(H, (0.8, 0.2), 0.1) < 1e-6
    with pytest.raises(ValueError, match="radius"):
        catmap.mass_in_ball(H, (0.3, 0.7), -0.1)
    with pytest.raises(ValueError):
        catmap.husimi(s, 4)


def _ball_mask(G, center, radius):
    # one center at a time, over the cell centers (i + 1/2) / G
    g = (np.arange(G) + 0.5) / G
    x = np.abs(g[:, None] - center[0]) % 1.0
    y = np.abs(g[None, :] - center[1]) % 1.0
    x = np.minimum(x, 1.0 - x)
    y = np.minimum(y, 1.0 - y)
    return x * x + y * y <= radius * radius


def test_ball_masks_match_one_center_at_a_time():
    # centers on both sides of the seams, and radii past half the diagonal
    rng = np.random.default_rng(9)
    centers = np.vstack([rng.random((6, 2)), [[0.0, 0.0], [0.99, 0.01], [1.0, 0.5]]])
    for G, radius in ((8, 0.1), (64, 0.1), (64, 0.3), (13, 0.75)):
        masks = catmap.ball_masks(G, centers, radius)
        assert masks.shape == (len(centers), G, G) and masks.dtype == bool
        for k, c in enumerate(centers):
            assert np.array_equal(masks[k], _ball_mask(G, c, radius)), (G, radius, k)
    # about the origin the four corners of the grid hold the cells whose
    # centers ((2a + 1) / 128, (2b + 1) / 128) lie within 0.1 = 12.8 / 128
    inside = sum((2 * a + 1) ** 2 + (2 * b + 1) ** 2 <= 163 for a in range(8) for b in range(8))
    assert catmap.ball_masks(64, [(0.0, 0.0)], 0.1)[0].sum() == 4 * inside
    # a negative radius is not squared into a positive one
    for radius in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="radius"):
            catmap.ball_masks(64, centers, radius)
    # a non-finite center is refused, not given an empty mask
    for bad in ((float("nan"), 0.0), (0.0, float("inf")), (-float("inf"), 0.5)):
        with pytest.raises(ValueError, match="centers"):
            catmap.ball_masks(8, [bad], 0.1)
        with pytest.raises(ValueError, match="centers"):
            catmap.ball_masks(64, np.vstack([centers, bad]), 0.3)
        with pytest.raises(ValueError, match="centers"):
            catmap.mass_in_ball(np.ones((8, 8)), bad, 0.1)
    # centers come as k pairs: a flat list of 4 once gave two masks, and a
    # flat list of 3 a numpy reshape error
    for bad in ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError, match="centers"):
            catmap.ball_masks(8, bad, 0.1)


def test_ball_masks_peak_memory():
    # 180 masks at G = 64 are 0.74 MB of booleans; a float64 (k, G, G)
    # distance stack would add 5.9 MB on top
    centers = np.random.default_rng(5).random((180, 2))
    tracemalloc.start()
    try:
        masks = catmap.ball_masks(64, centers, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.shape == (180, 64, 64)
    assert peak < 2.5e6, peak


def test_scar_record_regression():
    # N = 682 is the first configured N of odd period
    for N, T, frozen in ((504, 24, 0.18123712305608428), (682, 15, 0.19133174932532568)):
        rec = catmap.scar_record(A, N)
        assert rec["period"] == T
        assert abs(abs(rec["period_phase"]) - 1.0) < 1e-10
        assert abs(abs(rec["eigenphase"]) - 1.0) < 1e-10
        assert rec["residual"] < 1e-10
        # the state is a genuine eigenvector of the dense propagator
        Q = catmap.propagator(A, N)
        psi = rec["state"].amplitudes
        assert np.abs(Q.U @ psi - rec["eigenphase"] * psi).max() < 1e-10
        mass = catmap.mass_in_ball(catmap.husimi(rec["state"], 64), (0.0, 0.0), N ** -0.25)
        assert abs(mass - frozen) < 1e-9, N


def _scar_orbit(N):
    # the orbit U_adj^k phi_0, k < T, that scar_record projects
    Q = catmap.QuantizedCatMap(A, N)
    T, phase = catmap._matrix_free_period(Q)
    adj = np.exp(-1j * np.angle(phase) / T)
    orbit = [catmap._coherent_array(N, 0.0, 0.0)]
    for _ in range(T - 1):
        orbit.append(adj * catmap.apply_propagator(Q, orbit[-1]))
    return np.array(orbit)


def _slow_projections(orbit):
    # slow reference: U_adj^k of the sum over k = -T//2..T//2 is the sum of
    # orbit rows shifted by k, and the projector onto eigenphase 2 pi r / T
    # is the T x T DFT across those T shifted sums
    T = len(orbit)
    ks = np.arange(-(T // 2), T // 2 + 1)
    shifts = np.stack([orbit[(ks + k) % T].sum(axis=0) for k in range(T)])
    w = np.exp(-2j * np.pi * np.outer(np.arange(T), np.arange(T)) / T)
    return (w @ shifts) / T


@pytest.mark.parametrize("N, T", [(504, 24), (646, 18), (682, 15)])
def test_eigenphase_projections_match_the_shift_sums(N, T):
    orbit = _scar_orbit(N)
    assert orbit.shape == (T, N)
    fast = catmap._eigenphase_projections(orbit)
    slow = _slow_projections(orbit)
    norms = np.linalg.norm(fast, axis=1)
    assert np.linalg.norm(fast - slow, axis=1).max() <= 1e-12 * norms.max()
    if T % 2:
        # the window counts every residue once: only r = 0 survives
        assert norms[1:].max() <= 1e-12 * norms[0]
    else:
        # the residue T/2 counted twice leaves |F_r| / T at r != 0
        F = np.linalg.norm(np.fft.fft(orbit, axis=0), axis=1)
        expect = F * np.where(np.arange(T) == 0, T + 1, 1) / T
        assert np.allclose(norms, expect, rtol=1e-12, atol=0)


def test_matrix_free_period_keeps_each_rejection(monkeypatch):
    # one diagonal step in place of the compiled word, and the Ginibre probe
    # kept or pointed at a given vector
    N = 504
    t_cl = catmap.classical_period_mod(A, N)
    assert t_cl <= 4.0 * math.log(N) / CHI  # at least one candidate period
    draw = catmap._kernels._ginibre

    def period(d, probe=None):
        monkeypatch.setattr(
            catmap._kernels, "_ginibre",
            draw if probe is None else lambda rng, shape: probe.astype(complex),
        )
        Q = catmap.QuantizedCatMap(A, N)
        object.__setattr__(Q, "steps", (lambda v: d * v,))
        return catmap._matrix_free_period(Q)

    def e(j):
        return np.eye(N)[j]

    ones = np.ones(N, dtype=complex)
    spread = np.exp(1j * np.arange(N))
    # (a) e0 is an eigenvector and the random probe is not
    with pytest.raises(NumericalSignal, match="not-admissible"):
        period(spread)
    # the block's deviation alone: both ratios read 1 at the leading entries
    d = ones.copy()
    d[2] = np.exp(1j)
    with pytest.raises(NumericalSignal, match="not-admissible"):
        period(d, 2 * e(1) + e(2))
    # (b) both probes are eigenvectors, with eigenvalues 1 and e^i
    d = ones.copy()
    d[1] = np.exp(1j)
    with pytest.raises(NumericalSignal, match="not-admissible"):
        period(d, e(1))
    # the modulus alone: one shared eigenvalue off the unit circle
    with pytest.raises(NumericalSignal, match="not-admissible"):
        period(1.01 * ones, e(1))
    # (c) both probes share one eigenvalue: the first candidate and its phase
    d = np.exp(0.5j) * spread
    d[1] = d[0]
    t, phase = period(d, e(1))
    assert t == t_cl
    assert abs(phase - np.exp(0.5j * t_cl)) < 1e-12


def test_scarred_state_alias():
    s = catmap.scarred_state(A, 18)
    rec = catmap.scar_record(A, 18)
    assert np.array_equal(s.amplitudes, rec["state"].amplitudes)


def test_frozen_quantum_periods_large():
    # spot checks against the stored admissibility scan
    for N, t_expect in ((504, 24), (646, 18), (682, 15), (1292, 18), (1705, 30)):
        assert N in catmap.FNDB_ADMISSIBLE_LARGE
        t, phase = catmap._matrix_free_period(catmap.QuantizedCatMap(A, N))
        assert t == t_expect
        assert abs(abs(phase) - 1.0) < 1e-8


def _projector(V):
    return V @ V.conj().T


def test_eigenspaces_properties():
    N = 89
    Q = catmap.propagator(A, N)
    pairs = catmap.eigenspaces(Q)
    assert sum(V.shape[1] for _, V in pairs) == N
    phases = np.array([lam for lam, _ in pairs])
    assert np.abs(np.abs(phases) - 1.0).max() < 1e-12
    assert np.all(np.diff(np.angle(phases)) > 0.0)
    V = np.hstack([V for _, V in pairs])
    assert np.abs(V.conj().T @ V - np.eye(N)).max() < 1e-12
    for lam, Vr in pairs:
        assert np.abs(Q.U @ Vr - lam * Vr).max() < 1e-12
    assert np.abs(sum(lam * _projector(Vr) for lam, Vr in pairs) - Q.U).max() < 1e-12
    again = catmap.eigenspaces(Q)
    assert len(again) == len(pairs)
    for (l1, V1), (l2, V2) in zip(pairs, again):
        assert l1 == l2 and np.array_equal(V1, V2)


def test_eigenspaces_independent_of_propagator_rounding():
    # U from the compiled word and the dense generator product differ only
    # by rounding, so the phases, block sizes and projectors must agree;
    # N=101 and N=401 have an eigenspace at -1
    for N in (101, 211, 401):
        Q = catmap.propagator(A, N)
        U2 = _generator_product(Q.word, N, np.eye(N)).T
        assert np.abs(U2 - Q.U).max() < 1e-12
        dense = catmap.eigenspaces(Q)
        free = catmap.eigenspaces(types.SimpleNamespace(N=N, U=U2))
        assert [V.shape[1] for _, V in dense] == [V.shape[1] for _, V in free]
        for (l1, V1), (l2, V2) in zip(dense, free):
            assert abs(l1 - l2) < 1e-10
            assert np.abs(_projector(V1) - _projector(V2)).max() < 1e-10


def _unitary_with(angles, seed=0):
    # V diag(e^{i angles}) V^H for a Haar V, and the columns of V
    V = catmap._kernels._haar_unitary(np.random.default_rng(seed), len(angles))
    U = (V * np.exp(1j * np.asarray(angles))) @ V.conj().T
    return types.SimpleNamespace(N=len(angles), U=U), V


def test_eigenspace_clusters_follow_the_1e_8_rule():
    # -1 twice, on span{e0+e4, e2+e6}: one eigenspace at exactly -1
    N = 8
    e = np.eye(N)
    vecs = [e[0] + e[4], e[2] + e[6], e[0] - e[4], e[2] - e[6], e[1], e[3], e[5], e[7]]
    V = np.stack(vecs, axis=1) / np.linalg.norm(vecs, axis=1)
    lam = np.exp(1j * np.array([math.pi, math.pi, 0.1, 0.5, 0.9, 1.3, 1.7, 2.1]))
    Q = types.SimpleNamespace(N=N, U=V @ np.diag(lam) @ V.conj().T)
    pairs = catmap.eigenspaces(Q)
    assert [Vr.shape[1] for _, Vr in pairs] == [1] * 6 + [2]
    assert pairs[-1][0] == -1.0
    assert np.abs(_projector(pairs[-1][1]) - _projector(V[:, :2])).max() < 1e-12
    # neighbouring eigenphases 5e-9 apart form one eigenspace, 2e-8 apart two
    for gap, sizes in ((5e-9, [1, 2, 1, 1]), (2e-8, [1, 1, 1, 1, 1])):
        Q, V = _unitary_with([-2.0, 0.3, 0.3 + gap, 1.0, 2.0])
        pairs = catmap.eigenspaces(Q)
        assert [Vr.shape[1] for _, Vr in pairs] == sizes, gap
        if gap < 1e-8:
            assert abs(pairs[1][0] - np.exp(1j * (0.3 + gap / 2))) < 1e-12
            assert np.abs(_projector(pairs[1][1]) - _projector(V[:, 1:3])).max() < 1e-10
    # a pair on both sides of the branch cut is one eigenspace at -1
    Q, V = _unitary_with([math.pi - 1e-9, -2.0, -math.pi + 1e-9, 1.0])
    pairs = catmap.eigenspaces(Q)
    assert [Vr.shape[1] for _, Vr in pairs] == [1, 1, 2]
    assert pairs[-1][0] == -1.0
    assert np.abs(_projector(pairs[-1][1]) - _projector(V[:, [0, 2]])).max() < 1e-10


def test_eigenspaces_decompose_with_no_signal():
    # among these are all 15 N <= 512 where position keys chosen inside the
    # degenerate eigenspaces could not pick a basis
    for N in list(range(2, 65)) + [65, 80, 85, 88, 90, 96, 105, 120, 128, 256, 512]:
        Q = catmap.propagator(A, N)
        pairs = catmap.eigenspaces(Q)
        V = np.hstack([Vr for _, Vr in pairs])
        assert max(np.abs(Q.U @ Vr - lam * Vr).max() for lam, Vr in pairs) <= 1e-12, N
        assert np.abs(V.conj().T @ V - np.eye(N)).max() <= 1e-12, N
        assert np.abs(sum(lam * _projector(Vr) for lam, Vr in pairs) - Q.U).max() <= 1e-12, N


def test_eigenspace_phases_match_the_quantum_period():
    # U^T is the scalar `phase`, so every eigenphase's T-th power is that
    # scalar, and no proper divisor T/p makes all eigenphases' powers equal
    for N in list(range(2, 65)) + [127, 128]:
        Q = catmap.propagator(A, N)
        rec = catmap.quantum_period(Q)
        T, phase = rec["period"], rec["phase"]
        lam = np.array([phase_r for phase_r, _ in catmap.eigenspaces(Q)])
        assert np.abs(lam ** T - phase).max() <= 1e-8, N
        for p in _prime_factors(T):
            w = lam ** (T // p)
            assert np.abs(w[:, None] - w[None, :]).max() > 1e-8, (N, p)


def test_eigenspace_cell_sup_regression():
    # largest mass <c, P_r c> = |V_r^H c|^2 of a normalized cell-centre
    # coherent state c in an eigenspace; it takes no basis inside a block,
    # so rotating every block by a Haar unitary leaves it in place
    frozen = {101: 0.21936659343922, 211: 0.21795040319537, 401: 0.14322712142577}
    rng = np.random.default_rng(17)
    sups = {}
    for N, expect in frozen.items():
        pairs = catmap.eigenspaces(catmap.propagator(A, N))
        G = math.isqrt(N - 1) + 1
        bank = np.empty((G * G, N), dtype=complex)
        for ix in range(G):
            for ixi in range(G):
                bank[ix * G + ixi] = catmap._coherent_array(N, (ix + 0.5) / G, (ixi + 0.5) / G)

        def sup(blocks):
            return max(float((np.abs(bank.conj() @ V) ** 2).sum(axis=1).max()) for V in blocks)

        sups[N] = sup(V for _, V in pairs)
        assert abs(sups[N] - expect) < 1e-6
        rotated = (V @ catmap._kernels._haar_unitary(rng, V.shape[1]) for _, V in pairs)
        assert abs(sup(rotated) - sups[N]) <= 1e-12
    assert sups[401] < sups[101]


def test_smooth_half_cutoff():
    N = 233
    p0, p1 = catmap.smooth_half_cutoff(N)
    assert np.abs(p0 + p1 - 1.0).max() < 1e-15
    assert p0.min() >= 0.0 and p0.max() <= 1.0
    assert p0[0] == 1.0 and p0[N // 2] == 0.0
    # symmetric about x = 0 on the torus
    assert np.abs(p0[1:] - p0[1:][::-1]).max() < 1e-15


@pytest.mark.parametrize("width", [0.0, -0.1, 0.26, 1.0, float("nan")])
def test_smooth_half_cutoff_rejects_widths_outside_a_quarter(width):
    # width 0 once gave NaN at d = 1/4, and a negative width moved the
    # plateau's edge out to x = 1/2
    with pytest.raises(ValueError, match="width"):
        catmap.smooth_half_cutoff(64, width)


def test_smooth_half_cutoff_at_the_widest_ramp():
    # width 1/4 ramps down from p0 = 1 at the origin to p0 = 0 at x = 1/4
    p0, p1 = catmap.smooth_half_cutoff(64, 0.25)
    assert np.abs(p0 + p1 - 1.0).max() < 1e-15
    assert p0[0] == 1.0 and np.all(np.diff(p0[:17]) < 0)
    assert np.all(p0[16:49] == 0.0)


def test_partition_product_norm_validation():
    N = 21
    Q = catmap.propagator(A, N)
    p0, p1 = catmap.smooth_half_cutoff(N)
    with pytest.raises(ValueError, match="nonempty"):
        catmap.partition_product_norm(Q, (p0, p1), [])
    with pytest.raises(NumericalSignal, match="bad-partition"):
        catmap.partition_product_norm(Q, (p0[:-1], p1[:-1]), [0])
    with pytest.raises(NumericalSignal, match="bad-partition"):
        catmap.partition_product_norm(Q, (2.0 * p0, p1), [0])
    with pytest.raises(NumericalSignal, match="bad-partition"):
        catmap.partition_product_norm(Q, (p0, 0.5 * p1), [0])
    # a word entry must index a cutoff; a negative entry is not wrapped
    for bad in ([-1, -1], [2], [0, 1, 2], [0, -1], [1.0]):
        with pytest.raises(ValueError, match="word entry"):
            catmap.partition_product_norm(Q, (p0, p1), bad)
    # one cutoff alone is a contraction
    assert catmap.partition_product_norm(Q, (p0, p1), [0])[-1] <= 1.0 + 1e-12


def test_partition_product_norm_frozen_triple():
    N = 233
    Q = catmap.propagator(A, N)
    parts = catmap.smooth_half_cutoff(N)
    n1 = catmap.partition_product_norm(Q, parts, [0, 1, 0])[-1]
    n2 = catmap.partition_product_norm(Q, parts, [1, 0])[-1]
    n12 = catmap.partition_product_norm(Q, parts, [0, 1, 0, 1, 0])[-1]
    assert abs(n1 - 0.9999999998738788) < 1e-9
    assert abs(n2 - 1.0000000000000204) < 1e-9
    assert abs(n12 - 0.6875799145486676) < 1e-9
    assert n12 <= n1 * n2 + 1e-9


def test_partition_prefix_norms_match_the_plain_product():
    # entry k against the product of the k + 1 conjugated cutoffs, and bit for
    # bit against the last entry of a call on that prefix alone
    N = 233
    Q = catmap.propagator(A, N)
    parts = catmap.smooth_half_cutoff(N)
    for word in ([0] * 11, [0, 1, 0, 1, 0]):
        norms = catmap.partition_product_norm(Q, parts, word)
        assert len(norms) == len(word)
        for k, norm in enumerate(norms):
            assert abs(norm - partition_norm(Q.U, parts, word[: k + 1])) <= 1e-12, (word, k)
            assert norm == catmap.partition_product_norm(Q, parts, word[: k + 1])[-1], (word, k)
