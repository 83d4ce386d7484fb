"""Quantized hyperbolic toral automorphisms on the N-dimensional state space.

Conventions (frozen): position states j/N, j = 0..N-1. Translation operators
act as T(m) psi(j) = e^{-i pi m1 m2 / N} e^{2 pi i m1 j / N} psi(j - m2), so
that T(a) T(b) = e^{i pi w(a,b)/N} T(a+b) and the commutation phase is
e^{2 pi i w(a,b)/N}, with w the integer symplectic form. Propagators are
built as products of the quantized generators J (a DFT) and lower shears
(quadratic phase diagonals e^{i pi c j (j+N) / N}); the j(j+N) exponent keeps
the shear well defined for both parities, so exact Egorov holds with no
parity correction. The word is compiled once per (A, N) into a few numpy
steps; the dense U is those steps applied to the identity. The period
table's matrix powers run on the joint eigenspaces of the dilations
j -> xj mod N, x odd with x^2 = 1 mod 2N, with which every generator
commutes; the parity j -> -j mod N is one of them.
"""

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from semiclab import _kernels
from semiclab._errors import NumericalSignal, check_integer


@dataclass(frozen=True)
class CatMap:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            check_integer(name, getattr(self, name))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be exactly 1")

    @property
    def trace(self):
        return self.a + self.d

    def is_hyperbolic(self):
        return abs(self.trace) > 2

    def matrix(self):
        return ((self.a, self.b), (self.c, self.d))

    def lyapunov_exponent(self):
        if not self.is_hyperbolic():
            raise NumericalSignal("non-hyperbolic", f"trace {self.trace}")
        t = abs(self.trace)
        return math.log((t + math.sqrt(t * t - 4.0)) / 2.0)


@dataclass(frozen=True)
class QuantizedCatMap:
    """U_N(A) as the checked generator word of A. Its compiled `steps` for
    `apply_propagator`, the dense U, those steps applied to the identity, and
    `blocks` for `quantum_period`, are each built once, on first use.

    `blocks` is U on the joint eigenspaces of the dilations j -> xj mod N
    with x odd and x^2 = 1 mod 2N, which commute with every U_N(A): first
    the even and odd subspaces of the parity x = -1, then, inside each, one
    subspace per character of the other dilations. Which blocks there are
    depends on N alone, and their sizes sum to N."""

    cat: CatMap
    N: int
    word: tuple = field(init=False)

    def __post_init__(self):
        check_integer("N", self.N, 1)
        if not self.cat.is_hyperbolic():
            raise NumericalSignal("non-hyperbolic", f"trace {self.cat.trace}")
        word = _decompose(self.cat.matrix())
        if _word_matrix(word) != self.cat.matrix():
            raise NumericalSignal("no-period", "generator word does not reproduce the map")
        object.__setattr__(self, "word", word)

    @functools.cached_property
    def steps(self):
        return _compile_word(self.word, self.N)

    @functools.cached_property
    def blocks(self):
        # For odd x with x^2 = 1 mod 2N, xI is central in SL2(Z/2N), and the
        # dilation j -> xj mod N commutes with the DFT (x^2 jk = jk mod N)
        # and with every shear (x^2 j^2 = j^2 and xjN = jN mod 2N), so with
        # U_N(A) for every A (Kurlberg-Rudnick). The parity x = -1 splits
        # first: each generator is folded onto its even and odd subspaces.
        # The other dilations act on each parity block as signed
        # permutations, and each generator is folded again onto their
        # characters' subspaces. The word's products run on the joint
        # eigenspaces, and the parts dropped by both folds, which mix the
        # subspaces, must be roundoff. Each parity block of the DFT, and its
        # fold, is released once used, so the build peaks no higher than
        # _fourier_blocks does.
        N = self.N
        *F, mixing = _fourier_blocks(N)
        diag = {c: _shear_diag(N, c) for g, c in self.word if g == "S"}
        mixing = max(mixing, *(_parity_mixing(d) for d in diag.values()))
        r = -np.arange(N) % N
        half = {c: 0.5 * (d + d[r]) for c, d in diag.items()}
        h = _dilations(N)
        blocks = []
        for start, parity in ((0, 1), (1, -1)):
            pairs, mix = _character_fold(F.pop(0), half, *_signed_action(h, N, start, parity))
            mixing = max(mixing, mix)
            blocks += [_word_product(self.word, Fc, dc) for Fc, dc in pairs]
            del pairs
        if mixing > 1e-10:
            raise NumericalSignal("parity-mixing", f"N={N}: a generator mixes the dilation blocks by {mixing:.2e}")
        return tuple(blocks)

    @functools.cached_property
    def U(self):
        return apply_propagator(self, np.eye(self.N)).T


def _word_product(word, F, diag):
    # the word's generators multiplied from the right, outermost first, with
    # F for J and diag[c] for the shear S_c; the shears ahead of the first J
    # (a hyperbolic word has one) scale the rows of F, so the first J costs
    # no matrix product
    word = word[::-1]
    first = next(i for i, (g, _) in enumerate(word) if g == "J")
    lead = functools.reduce(np.multiply, (diag[c] for _, c in word[:first]), np.ones(len(F)))
    U = lead[:, None] * F
    for g, c in word[first + 1:]:
        U = U @ F if g == "J" else U * diag[c][None, :]
    return U


@dataclass(frozen=True)
class TorusPhaseState:
    amplitudes: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("amplitudes must be finite")
        if abs(float((np.abs(self.amplitudes) ** 2).sum()) - 1.0) > 1e-12:
            raise ValueError("amplitudes must have unit norm")


def translation_operator(N, m):
    """Weyl-Heisenberg translation T(m) in the position basis."""
    check_integer("N", N, 1)
    m1, m2 = m
    check_integer("m1", m1)
    check_integer("m2", m2)
    j = np.arange(N)
    T = np.zeros((N, N), dtype=complex)
    pref = cmath.exp(-1j * math.pi * m1 * m2 / N)
    T[j, (j - m2) % N] = pref * np.exp(2j * np.pi * m1 * j / N)
    return T


def _fourier_blocks(N):
    # The unitary DFT exp(-2 pi i jk / N) / sqrt(N) on the parity-even basis
    # e_0, (e_j + e_-j)/sqrt2 for 0 < j < N/2 and e_{N/2} for even N, and on
    # the parity-odd basis (e_j - e_-j)/sqrt2, and the largest entry of its
    # part that mixes the two parities, which is dropped. Each entry takes jk
    # unreduced, one exp per distinct product, so it is bitwise the
    # elementwise formula's. F is symmetric, so its quarters a = F[j, k],
    # b = F[-j, k] and d = F[-j, -k] for 0 <= j, k <= N/2 hold every entry
    # of the fold: F[j, -k] is b transposed.
    j = np.arange(N // 2 + 1)
    r = -j % N
    pairs = ((j, j), (r, j), (r, r))
    seen = np.zeros(r.max() ** 2 + 1, dtype=bool)
    for x, y in pairs:
        seen[np.multiply.outer(x, y)] = True
    table = np.exp(-2j * np.pi * np.flatnonzero(seen) / N) / math.sqrt(N)
    # the rank of each marked product among the marks, in the narrowest
    # integer type that holds it, counted in place
    rank = seen.astype(np.min_scalar_type(seen.size))
    np.cumsum(rank, dtype=rank.dtype, out=rank)
    a, b, d = (table[rank[np.multiply.outer(x, y)] - 1] for x, y in pairs)
    del seen, table, rank  # freed before the fold's temporaries
    # R fixes index 0 and reverses 1..N-1, so F - RFR is a - d and b - b^T on
    # the quarters, mirrored; row and column 0 of F are constant
    mixing = max(
        float(np.abs(x[1:, 1:] - y[1:, 1:]).max(initial=0.0)) for x, y in ((a, d), (b, b.T))
    )
    # the sums keep the order of a fold by rows, then columns:
    # (a + b) + (b^T + d) and (a - b) - (b^T - d)
    k = slice(1, (N + 1) // 2)
    odd = a[k, k] - b[k, k]
    odd -= b.T[k, k] - d[k, k]
    odd *= 0.5
    a += b
    d += b.T
    a += d
    c = np.where(j == r, 0.5, math.sqrt(0.5))
    a *= c[:, None]
    a *= c
    return a, odd, mixing


def _dilations(N):
    # the elements h_b, b < 2^m, of a complement H of the parity in the
    # group {x mod N : x odd, x^2 = 1 mod 2N}: h_b is the product of the
    # generators x_i whose bit 2^i is set in b. The group is elementary
    # abelian, so each x outside H and -H doubles H.
    odd = np.arange(1, 2 * N, 2)
    h = [1 % N]
    for x in sorted(set((odd[odd * odd % (2 * N) == 1] % N).tolist())):
        if x not in h and -x % N not in h:
            h += [x * y % N for y in h]
    return np.array(h)


def _signed_action(h, N, start, parity):
    # each h_b on one parity block, whose position p holds the basis vector
    # of index j = p + start, 0 <= j <= N/2 (even, start 0) or 0 < j < N/2
    # (odd, start 1): h_b maps that vector to sign[b, p] times the vector at
    # position idx[b, p]. The image y = h_b j mod N stands for its class
    # {y, -y}, and on the odd block (e_y - e_-y)/sqrt2 is minus the vector
    # of -y. Returns j, idx and sign.
    j = np.arange(start, (N + 2 - start) // 2)
    y = np.multiply.outer(h, j) % N
    rep = np.minimum(y, N - y)
    return j, rep - start, np.where(y == rep, 1.0, parity)


def _walsh(X, axis):
    # the unnormalized Walsh-Hadamard transform of a contiguous X in place,
    # along an axis of length 2^m, one butterfly per bit: entry c becomes
    # sum_b (-1)^popcount(b & c) X[b]
    pre, q = math.prod(X.shape[:axis]), X.shape[axis]
    step = 1
    while step < q:
        Y = X.reshape(pre, q // (2 * step), 2, step, -1)
        a, b = Y[:, :, 0], Y[:, :, 1]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
        step *= 2
    return X


def _character_fold(B, diag, j, idx, sign):
    # B, and each diagonal taken at the indices j, on one parity block,
    # carried to the orthonormal basis of the vectors
    # sum_b chi_c(h_b) sign[b, k] e_idx[b, k] / norm: one for each character
    # chi_c(h_b) = (-1)^popcount(b & c) of H and each orbit representative k
    # (the smallest position of its orbit) where that sum is nonzero,
    # ordered by c, then k. Returns the pairs (block, diagonals) of the
    # characters that have a vector, and the largest entry dropped: B
    # between two characters, or a diagonal's spread about its mean over an
    # orbit.
    n = len(B)
    reps = np.flatnonzero(idx.min(axis=0) == np.arange(n))
    idx, sign = idx[:, reps], sign[:, reps]
    q, K = idx.shape
    # |vector|^2 = q sum over the stabilizer of k of chi_c(h_b) sign[b, k],
    # which is 0 or q times the stabilizer's order; so each gathered entry
    # is weighted by sign[b, k] / sqrt(q |stabilizer|), and the n vectors
    # kept come out orthonormal
    fixed = idx == idx[0]
    keep = _walsh(sign * fixed, 0) > 0
    kept = keep.reshape(-1)
    flat = idx.reshape(-1)
    weight = (sign / np.sqrt(q * fixed.sum(axis=0))).reshape(-1)
    # the rows' sums, then the columns', each over the gathered orbits; each
    # stage replaces X, so at most two of its generations are held
    X = B.take(flat, axis=0)
    X *= weight[:, None]
    X = _walsh(X.reshape(q, K, n), 0).reshape(q * K, n).compress(kept, axis=0)
    X = X.take(flat, axis=1)
    X *= weight
    X = _walsh(X.reshape(n, q, K), 1).reshape(n, q * K).compress(kept, axis=1)
    orbits = {c: d[j][idx] for c, d in diag.items()}
    means = {c: o.mean(axis=0) for c, o in orbits.items()}
    dropped = [float(np.abs(o - means[c]).max(initial=0.0)) for c, o in orbits.items()]
    pairs = []
    sizes = keep.sum(axis=1)
    ends = np.cumsum(sizes)
    for c, (a, b) in enumerate(zip(ends - sizes, ends)):
        dropped += [float(np.abs(X[a:b, :a]).max(initial=0.0)), float(np.abs(X[a:b, b:]).max(initial=0.0))]
        if b > a:
            pairs.append((X[a:b, a:b], {s: m[keep[c]] for s, m in means.items()}))
    return pairs, max(dropped)


def _shear_diag(N, c):
    j = np.arange(N)
    return np.exp(1j * np.pi * c * j * (j + N) / N)


_J = ((0, 1), (-1, 0))
_JINV = ((0, -1), (1, 0))


def _mm(X, Y):
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _decompose(A):
    # Euclidean peeling of A in SL2(Z) into J and lower-shear generators;
    # the word multiplies left to right to A
    word = []
    cur = A
    guard = 0
    while True:
        guard += 1
        if guard > 200:
            raise NumericalSignal("no-period", "generator decomposition did not terminate")
        (a, b), (c, d) = cur
        if c == 0:
            if a == 1:
                if b != 0:
                    word.append(("S", -b))
            else:
                word.extend([("J", None), ("J", None)])
                if b != 0:
                    word.append(("S", b))
            break
        q = round(a / c)
        word.append(("S", -q))
        word.append(("J", None))
        cur = _mm(_JINV, ((a - q * c, b - q * d), (c, d)))
    return tuple(word)


def _compile_word(word, N):
    # The word as steps along the last axis, innermost first. A run of J
    # folds mod 4: J^2 is the parity j -> -j mod N and J^3 the inverse
    # unitary DFT. Shears left adjacent multiply into one diagonal.
    runs = []
    for g, run in itertools.groupby(word, key=lambda gc: gc[0]):
        if g == "J":
            turns = len(list(run)) % 4
            if turns:
                runs.append(turns)
            continue
        d = functools.reduce(np.multiply, (_shear_diag(N, c) for _, c in run))
        if runs and isinstance(runs[-1], np.ndarray):
            runs[-1] = runs[-1] * d
        else:
            runs.append(d)
    turn = {
        1: functools.partial(np.fft.fft, norm="ortho"),
        2: functools.partial(np.take, indices=-np.arange(N) % N, axis=-1),
        3: functools.partial(np.fft.ifft, norm="ortho"),
    }
    return tuple(
        functools.partial(np.multiply, r) if isinstance(r, np.ndarray) else turn[r]
        for r in runs
    )


def _word_matrix(word):
    M = ((1, 0), (0, 1))
    for g, c in word:
        M = _mm(M, _J if g == "J" else ((1, -c), (0, 1)))
    return M


def propagator(A, N):
    """Unitary quantization of A with exact Egorov: U* T(m) U = theta T(Am),
    returned with its dense U already built."""
    Q = QuantizedCatMap(A, N)
    Q.U  # the dense build belongs to this call
    return Q


def apply_propagator(Q, v):
    """U v along the last axis of v, without touching the dense matrix: the
    compiled word's steps, innermost first. A (k, N) block maps row by row."""
    out = np.asarray(v, dtype=complex)
    if out.ndim == 0 or out.shape[-1] != Q.N:
        raise ValueError(f"last axis of v must have length N = {Q.N}")
    for step in Q.steps:
        out = step(out)
    return out


def classical_period_mod(A, N):
    """Smallest t >= 1 with A^t = I mod N, by exact integer powers."""
    check_integer("N", N, 1)
    if N == 1:
        return 1
    a, b, c, d = A.a % N, A.b % N, A.c % N, A.d % N
    m00, m01, m10, m11 = 1, 0, 0, 1
    t = 0
    guard = 16 * N * N + 64
    while True:
        m00, m01, m10, m11 = (
            (m00 * a + m01 * c) % N, (m00 * b + m01 * d) % N,
            (m10 * a + m11 * c) % N, (m10 * b + m11 * d) % N,
        )
        t += 1
        if m00 == 1 and m01 == 0 and m10 == 0 and m11 == 1:
            return t
        if t > guard:
            raise NumericalSignal("no-period", f"no period below {guard} for N={N}")


def _parity_mixing(d):
    # max |d - R d| for the parity R: j -> -j mod N on a diagonal; R fixes
    # index 0 and reverses 1..N-1, so the mirror is a view
    return float(np.abs(d[1:] - d[:0:-1]).max(initial=0.0))


def _scalar_distance(w, s):
    # max |w - s I| for a square w, without building s I: its diagonal, and
    # its off-diagonal entries as an (n - 1, n) view, since past the first
    # entry of the flat w each diagonal entry ends a run of n + 1
    n = len(w)
    off = w.reshape(-1)[1:].reshape(-1, n + 1)[:, :n]
    return max(np.abs(w.diagonal() - s).max(initial=0.0), np.abs(off).max(initial=0.0))


def quantum_period(Q):
    """Smallest t <= 4 * classical_period_mod(A, 2N) with U^t scalar to 1e-8.

    Scalar times can only occur at multiples of the classical period mod N,
    so only those are tested. The record holds that classical period too.

    The powers run on `Q.blocks`, U on the joint eigenspaces of the
    dilations j -> xj mod N (x odd, x^2 = 1 mod 2N), the parity x = -1 among
    them, and the dense U is never built: U^t is scalar exactly when every
    block W_b is the same scalar s, taken as sum_b tr W_b / N. Building the
    blocks raises NumericalSignal("parity-mixing") if a generator mixes
    those eigenspaces by more than 1e-10.
    """
    N = Q.N
    t_cl = classical_period_mod(Q.cat, N)
    P = [np.linalg.matrix_power(B, t_cl) for B in Q.blocks]
    W = P
    for t in itertools.count(t_cl, t_cl):
        s = sum(np.trace(w) for w in W) / N
        if abs(abs(s) - 1.0) <= 1e-8 and all(_scalar_distance(w, s) <= 1e-8 for w in W):
            return {"period": t, "phase": complex(s / abs(s)), "classical_period": t_cl}
        if t == t_cl:
            # t_cl divides the classical period mod 2N, so the first
            # candidate is within the bound and the bound waits until here
            bound = 4 * classical_period_mod(Q.cat, 2 * N)
        if t + t_cl > bound:
            raise NumericalSignal("period-not-found", f"N={N}: no scalar power below {bound}")
        W = [w @ p for w, p in zip(W, P)]


def _coherent_array(N, x0, xi0):
    # the periodized Gaussian wave packet at (x0, xi0), normalized:
    # `_kernels._gaussian_window` about N x0, folded onto Z/N with the phase
    # e^{2 pi i xi0 (n - N x0)}; the terms below exp(-40) ~ 4e-18 are dropped
    c = N * x0
    n, g = _kernels._gaussian_window(N, c)
    psi = np.zeros(N, dtype=complex)
    np.add.at(psi, n % N, g * np.exp(2j * math.pi * xi0 * (n - c)))
    return psi / np.linalg.norm(psi)


# Frozen admissibility fixture for CatMap(2,1,1,1): the N >= 500 regression
# set of the scarring experiment, a subset of the N whose quantum period
# satisfies T_N <= 4 ln N / chi. A scan of N <= 3000 finds 79 such N, among
# them 521, 987, 1364 and 2584, which are not listed.
FNDB_ADMISSIBLE_LARGE = (
    504, 552, 644, 646, 682, 828, 966, 1008, 1104, 1288, 1292, 1449, 1656,
    1705, 1891, 1932, 2576, 2684, 2898,
)


def _matrix_free_period(Q):
    # shortest U-power that acts as a scalar, probed on two vectors stepped
    # together as one (2, N) block; candidates are multiples of the
    # classical period within the short-period (Ehrenfest-scale)
    # admissibility bound
    A, N = Q.cat, Q.N
    chi = A.lyapunov_exponent()
    bound = 4.0 * math.log(N) / chi
    t_cl = classical_period_mod(A, N)
    rng = np.random.default_rng(8191)
    probes = np.zeros((2, N), dtype=complex)
    probes[0] = _kernels._ginibre(rng, N)
    probes[0] /= np.linalg.norm(probes[0])
    probes[1][0] = 1.0
    lead = (np.arange(2), np.argmax(np.abs(probes), axis=1))
    cur = probes
    for t in range(t_cl, math.floor(bound) + 1, t_cl):
        for _ in range(t_cl):
            cur = apply_propagator(Q, cur)
        s = cur[lead] / probes[lead]
        if not (
            (np.abs(np.abs(s) - 1.0) > 1e-8).any()
            or float(np.abs(cur - s[:, None] * probes).max()) > 1e-8
            or abs(s[1] - s[0]) > 1e-8
        ):
            return t, s[0] / abs(s[0])
    raise NumericalSignal(
        "not-admissible",
        f"N={N}: no quantum period within 4 ln N / chi = {bound:.2f}",
    )


def _eigenphase_projections(orbit):
    # U_adj^k of the sum of orbit rows -T//2..T//2 is a circular window sum
    # of orbit rows; the window counts each residue mod T of that range
    T = len(orbit)
    window = np.bincount(np.arange(-(T // 2), T // 2 + 1) % T, minlength=T)
    return np.fft.fft(orbit, axis=0) * np.conj(np.fft.fft(window))[:, None] / T


def scar_record(A, N):
    """Scarred-state pipeline: short quantum period, symmetric coherent-state
    sum over one period, projection onto the nearest eigenspace.

    With F the DFT across k of the orbit U_adj^k phi_0, k < T, the projection
    onto the eigenphase 2 pi r / T of U_adj is F_r (T delta_{r0} + (-1)^r) / T
    for even T and F_0 delta_{r0} for odd T; the largest one is kept.

    Returns a record with the projected state, the period, the eigenphase of
    the propagator on it, and the eigenvector residual.
    """
    Q = QuantizedCatMap(A, N)
    Tq, phase = _matrix_free_period(Q)
    adj = cmath.exp(-1j * cmath.phase(phase) / Tq)
    orbit = np.empty((Tq, N), dtype=complex)
    orbit[0] = _coherent_array(N, 0.0, 0.0)
    for k in range(1, Tq):
        orbit[k] = adj * apply_propagator(Q, orbit[k - 1])
    proj_all = _eigenphase_projections(orbit)
    norms = np.linalg.norm(proj_all, axis=1)
    r = int(np.argmax(norms))
    proj = proj_all[r] / norms[r]
    eig_adj = cmath.exp(2j * math.pi * r / Tq)
    residual = float(np.linalg.norm(adj * apply_propagator(Q, proj) - eig_adj * proj))
    return {
        "state": TorusPhaseState(proj),
        "period": Tq,
        "period_phase": complex(phase),
        "eigenphase": complex(np.conj(adj) * eig_adj),
        "residual": residual,
    }


def scarred_state(A, N):
    """Eigenvector of the propagator scarred on the fixed point at 0."""
    return scar_record(A, N)["state"]


def husimi(s, grid):
    """Coherent-state overlap density |<coherent(x, xi)|s>|^2 on a grid
    of cell centers, normalized so that sum / G^2 = 1."""
    check_integer("grid", grid, 8)
    return _kernels.husimi_grid(np.asarray(s.amplitudes, complex), grid)


def ball_masks(G, centers, radius):
    """(k, G, G) boolean masks of the G x G grid cells, centers at (i+1/2)/G,
    inside the torus-metric ball of the given radius about each of k centers."""
    check_integer("G", G, 1)
    if not radius >= 0:
        raise ValueError(f"need radius >= 0: radius={radius!r}")
    c = np.asarray(centers, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or not np.isfinite(c).all():
        raise ValueError(f"need finite centers of shape (k, 2): centers={centers!r}")
    g = (np.arange(G) + 0.5) / G
    # one center at a time: no float64 (k, G, G) distance stack
    out = np.empty((len(c), G, G), dtype=bool)
    for k, (cx, cy) in enumerate(c):
        x = np.abs(g[:, None] - cx) % 1.0
        y = np.abs(g[None, :] - cy) % 1.0
        x = np.minimum(x, 1.0 - x)
        y = np.minimum(y, 1.0 - y)
        out[k] = x * x + y * y <= radius * radius
    return out


def mass_in_ball(H, center, radius):
    """Husimi mass inside a torus-metric ball, grid cells at (i+1/2)/G."""
    G = H.shape[0]
    return float((H * ball_masks(G, [center], radius)[0]).sum() / (G * G))


def eigenspaces(Q):
    """Eigenspaces of the propagator, as (phase, V) pairs sorted by angle.

    V is an orthonormal N x s block whose columns span the eigenspace, and
    phase is the normalized mean of its eigenvalues; the block sizes sum to
    N. Only what does not depend on the basis inside a block is defined:
    projectors V V^H, traces and Frobenius norms.

    Angles are taken in (-pi, pi], and an angle within 1e-8 of +-pi is
    pinned to pi, with its eigenvalue set to exactly -1; every other angle
    then lies above -pi + 1e-8, so no eigenspace wraps around the branch
    cut. Neighbouring sorted angles closer than 1e-8 belong to one
    eigenspace.

    The blocks come from one numpy.linalg.eig of U: the eigenvectors,
    sorted by angle, are orthonormalized by one QR, which leaves each vector
    in its own eigenspace since a unitary's eigenspaces are orthogonal. A
    failed orthonormality check, or a residual max|U V - phase V| above 1e-8
    over the blocks, raises NumericalSignal("diagonalization-failure").
    """
    N = Q.N
    try:
        lam, Z = np.linalg.eig(Q.U)
    except np.linalg.LinAlgError as exc:
        raise NumericalSignal("diagonalization-failure", str(exc))
    ph = lam / np.abs(lam)
    angs = np.angle(ph)
    at_minus_one = np.abs(angs) >= math.pi - 1e-8
    ph[at_minus_one] = -1.0
    angs[at_minus_one] = math.pi
    order = np.argsort(angs, kind="stable")
    ph, angs = ph[order], angs[order]
    V = np.linalg.qr(Z[:, order])[0]
    if float(np.abs(V.conj().T @ V - np.eye(N)).max()) > 1e-8:
        raise NumericalSignal("diagonalization-failure", "eigenvectors not orthonormal")
    groups = np.split(np.arange(N), np.flatnonzero(np.diff(angs) >= 1e-8) + 1)
    phases = [complex(m / abs(m)) for m in (ph[g].mean() for g in groups)]
    residual = float(np.abs(Q.U @ V - V * np.repeat(phases, [len(g) for g in groups])).max())
    if residual > 1e-8:
        raise NumericalSignal("diagonalization-failure", f"eigen-residual {residual:.2e}")
    return [(phase, V[:, g]) for phase, g in zip(phases, groups)]


def smooth_half_cutoff(N, width=0.1):
    """Partition of unity (p, 1-p): cosine-ramped plateau of half the torus
    centered at x = 0, ramp width as given, 0 < width <= 1/4."""
    check_integer("N", N, 1)
    if not 0 < width <= 0.25:
        raise ValueError(f"need 0 < width <= 1/4: width={width!r}")
    x = np.arange(N) / N
    u = (np.minimum(x, 1.0 - x) - (0.25 - width)) / width
    p0 = 1.0 - 0.5 * (1 - np.cos(np.pi * np.clip(u, 0, 1)))
    return p0, 1.0 - p0


def partition_product_norm(Q, partition, word):
    """List of operator norms: entry k is that of pi_{a_k}(k) ... pi_{a_0}(0),
    pi_a(t) = U^{-t} diag(partition[a]) U^t, all from one chain of products."""
    if len(word) < 1:
        raise ValueError("need a nonempty word")
    for a in word:
        check_integer("word entry", a, 0)
        if a >= len(partition):
            raise ValueError(f"word entry {a!r} is not a cutoff index in range({len(partition)})")
    parts = [np.asarray(p, dtype=float) for p in partition]
    total = np.zeros(Q.N)
    for p in parts:
        if len(p) != Q.N:
            raise NumericalSignal("bad-partition", "cutoff has wrong length")
        if p.min() < -1e-10 or p.max() > 1.0 + 1e-10:
            raise NumericalSignal("bad-partition", "cutoff values outside [0, 1]")
        total += p
    if float(np.abs(total - 1.0).max()) > 1e-10:
        raise NumericalSignal("bad-partition", "cutoffs do not sum to identity")
    norms = []
    for k, a in enumerate(word):
        B = parts[a][:, None] * (Q.U @ B) if k else np.diag(parts[a]).astype(complex)
        norms.append(float(np.linalg.svd(B, compute_uv=False)[0]))
    return norms
