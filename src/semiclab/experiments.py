"""Named, seeded experiments with JSON reports and CSV tables.

Every experiment is registered with documented defaults, the acceptance
checks it covers and a table of config rules. Its runner is a function of
the config alone, fn(cfg) -> (outputs, passed, tables), and neither checks
the config nor writes a file: tables maps each CSV file name to (header,
rows). run_experiment merges config overrides over the defaults and checks
the result once: unknown keys are rejected, each value must have its
default's type, and each rule (key, text, predicate) is at once what is
checked, what the ValueError quotes and what `semiclab list` prints. It then
runs the experiment and returns a report dict; given an output directory, it
writes the tables there with the one CSV writer, then `<name>-report.json`.
For a fixed config the report content is deterministic except for the
wall-time field.
"""

import cmath
import csv
import json
import math
import os
import time
from typing import Callable, NamedTuple

import numpy as np

from semiclab import catmap, dynamics, lattice, sphere, spectra, torus
from semiclab._errors import NumericalSignal

TWO_PI = 2.0 * math.pi

# arc-sweep radii: squared radii realizable as sums of two squares, spanning
# four decades so the (2T)^(1/3) arc scale is exercised from ~3 to ~12
ARC_RADII_SQUARED = (
    25, 100, 325, 1105, 4225, 5525, 10000, 27625, 71825, 93925,
    138125, 160225, 292825, 386425, 422500, 490025, 653225, 801125,
    915025, 1000000,
)

# x-observables for the variance-rate fit, as cosine momenta
VARIANCE_MOMENTA = ((1, 1), (2, 0), (0, 2), (1, -1), (3, 1))


def standard_map():
    """The hyperbolic matrix [[2, 1], [1, 1]] used by every cat-map experiment."""
    return catmap.CatMap(2, 1, 1, 1)


def mixture_measure(n_points, seed):
    """Half an atom at the fixed point, half a uniform sample."""
    base = dynamics.uniform_measure(n_points, seed)
    pts = np.vstack([np.zeros((1, 2)), base.points])
    w = np.concatenate([[0.5], np.full(n_points, 0.5 / n_points)])
    return dynamics.EmpiricalMeasure(pts, w)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _shells(max_m):
    # the nonempty 2-D shells 1 <= m <= max_m in increasing m, from one sieve
    return (s for s in lattice.shells_2d(max_m) if s.radius_squared and len(s))


def _map_on_cores(fn, items):
    """[fn(x) for x in items], run on this thread and one helper thread per
    further core the process may use (per further core of the machine where
    os.sched_getaffinity is not defined, as on Windows and macOS).

    Every thread takes the next item from the one iterator under a lock, so
    no thread holds more than one item and items are drawn lazily, and it
    writes fn's result to that item's index. The helpers live only for this
    call. The first exception in any thread stops every thread from taking
    items; once all helpers are joined it is raised unchanged.
    """
    import threading

    items = enumerate(items)
    lock = threading.Lock()
    results, errors = {}, []

    def drain():
        try:
            while True:
                with lock:
                    if errors:
                        return
                    item = next(items, None)
                if item is None:
                    return
                results[item[0]] = fn(item[1])
        except BaseException as exc:  # handed to the main thread, which raises it
            with lock:
                errors.append(exc)

    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    helpers = []
    try:
        for _ in range(cores - 1):
            t = threading.Thread(target=drain, name="semiclab-helper")
            t.start()
            helpers.append(t)
    except BaseException as exc:  # a helper failed to start: stop the others
        with lock:
            errors.append(exc)
    drain()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return [results[i] for i in range(len(results))]


def _run_l4_sweep(cfg):
    bound = 3.0 / TWO_PI**2

    def row(shell):
        m = shell.radius_squared
        vals = torus.l4_batch(shell, cfg["states_per_shell"], (cfg["seed"], m))
        return m, len(shell), float(vals.max())

    # each shell draws from its own (seed, m) generator, so the rows do not
    # depend on which thread ran them
    rows = _map_on_cores(row, _shells(cfg["max_m"]))
    best_val, best_m = 0.0, 0
    for m, _, top in rows:
        if top > best_val:
            best_val, best_m = top, m
    outputs = {
        "bound": bound,
        "max_l4": best_val,
        "argmax_radius_squared": best_m,
        "shells": len(rows),
    }
    tables = {"l4-sweep.csv": (("radius_squared", "shell_size", "max_l4"), rows)}
    return outputs, best_val <= bound + 1e-12, tables


def _run_jarnik(cfg):
    worst_pair = 0
    # key(k) = k1 W + k2 is additive, and injective on the differences,
    # whose entries are at most 2 isqrt(max_m) in size
    W = 4 * math.isqrt(cfg["max_m"]) + 1
    for shell in _shells(cfg["max_m"]):
        keys = np.array(shell.vectors) @ (W, 1)
        diffs = (keys[:, None] - keys[None, :]).ravel()
        _, counts = np.unique(diffs[diffs != 0], return_counts=True)
        worst_pair = max(worst_pair, int(counts.max()))
    rng = np.random.default_rng(cfg["seed"])
    worst_arc = 0
    rows = []
    for m in cfg["radii_squared"]:
        shell = lattice.enumerate_shell(m, 2)
        T = math.sqrt(m)
        ell = (2.0 * T) ** (1.0 / 3.0)
        thetas = rng.uniform(0.0, TWO_PI, cfg["arcs_per_radius"])
        mx = int(lattice.arc_counts(shell, thetas, ell / (2.0 * T)).max())
        rows.append((m, len(shell), ell, mx))
        worst_arc = max(worst_arc, mx)
    outputs = {
        "max_pair_degeneracy": worst_pair,
        "max_arc_count": worst_arc,
        "radii_squared": list(cfg["radii_squared"]),
    }
    header = ("radius_squared", "shell_size", "arc_length", "max_count")
    passed = worst_pair <= 2 and worst_arc <= 2
    return outputs, passed, {"jarnik-arcs.csv": (header, rows)}


def _run_variance(cfg):
    caps = cfg["shell_caps"]
    symbols = [torus.cosine_symbol(p, 1.0 / math.pi) for p in VARIANCE_MOMENTA]
    table = np.empty((len(caps), len(symbols)))
    sizes = []
    for r, M in enumerate(caps):
        basis = []
        for shell in _shells(M):
            m = shell.radius_squared
            basis.extend(torus.random_shell_basis(shell, (cfg["seed"], M, m)))
        sizes.append(len(basis))
        for c, a in enumerate(symbols):
            table[r, c] = torus.quantum_variance(basis, a)
    hbars = np.array([1.0 / math.sqrt(M) for M in caps])
    slopes = [
        float(np.polyfit(np.log(hbars), np.log(table[:, c]), 1)[0])
        for c in range(len(symbols))
    ]
    header = ("shell_cap", "hbar") + tuple(
        f"variance_cos_{p[0]}_{p[1]}" for p in VARIANCE_MOMENTA
    )
    rows = [
        (M, float(h)) + tuple(float(x) for x in table[r])
        for r, (M, h) in enumerate(zip(caps, hbars))
    ]
    outputs = {
        "momenta": [list(p) for p in VARIANCE_MOMENTA],
        "slopes": slopes,
        "basis_sizes": sizes,
        "max_variance_over_hbar": float((table / hbars[:, None]).max()),
    }
    passed = all(s >= 0.9 for s in slopes)
    return outputs, passed, {"variance-rate.csv": (header, rows)}


def _direct_flowed_element(psi, p, t):
    # independent recomputation of <psi, Op(e^{ipx} flowed) psi> straight
    # from the amplitude sum; p . (k + p/2) is exact in integer halves
    idx = psi.shell.index()
    hbar = psi.hbar
    total = 0.0 + 0.0j
    for i, k in enumerate(psi.shell.vectors):
        j = idx.get((k[0] + p[0], k[1] + p[1]))
        if j is None:
            continue
        c = (p[0] * (2 * k[0] + p[0]) + p[1] * (2 * k[1] + p[1])) / 2.0
        phase = cmath.exp(1j * t * (hbar * c))
        total += np.conj(psi.amplitudes[j]) * psi.amplitudes[i] * phase
    return complex(total * TWO_PI**2)


def _run_torus_egorov(cfg):
    rng = np.random.default_rng(cfg["seed"])
    shells = list(_shells(cfg["max_m"]))
    worst_match = 0.0
    worst_invariance = 0.0
    nonzero_elements = 0
    for i in range(cfg["trials"]):
        shell = shells[int(rng.integers(len(shells)))]
        psi = torus.random_eigenfunction(shell, (cfg["seed"], i))
        if i % 2 == 0:
            # difference of two shell vectors: the matrix element pairs up
            a, b = rng.integers(0, len(shell), 2)
            va, vb = shell.vectors[int(a)], shell.vectors[int(b)]
            p = (va[0] - vb[0], va[1] - vb[1])
        else:
            p = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
        t = float(rng.uniform(-cfg["t_range"], cfg["t_range"]))
        flowed = torus.egorov_conjugate(torus.exponential_symbol(p), t)
        lhs = torus.wigner(psi, flowed)
        rhs = _direct_flowed_element(psi, p, t)
        if rhs != 0:
            nonzero_elements += 1
        worst_match = max(worst_match, abs(lhs - rhs))
        mixed = torus.TorusSymbol({(0, 0): 0.25 + 0j, p: 1.0 + 0j})
        w0 = torus.wigner(psi, mixed)
        wt = torus.wigner(psi, torus.egorov_conjugate(mixed, t))
        worst_invariance = max(worst_invariance, abs(wt - w0))
    outputs = {
        "worst_matrix_element_error": worst_match,
        "worst_invariance_drift": worst_invariance,
        "trials": cfg["trials"],
        "nonzero_elements": nonzero_elements,
    }
    passed = (
        worst_match <= 1e-12
        and worst_invariance == 0.0
        and nonzero_elements >= cfg["trials"] // 4
    )
    return outputs, passed, {}


def _run_weyl(cfg):
    lam_max = float(cfg["lam_max"])
    step = float(cfg["step"])
    # the multiples of step up to lam_max; the 1e-9 relative slack keeps the
    # last one when lam_max / step rounds just below an integer
    lams = [step * i for i in range(1, int(lam_max / step * (1.0 + 1e-9)) + 1)]
    models = {
        "torus-2": spectra.SpectrumModel("torus-n", 2),
        "sphere-2": spectra.SpectrumModel("sphere-2"),
    }
    header = ("lambda", "count", "leading", "remainder")
    tables, ratios = {}, {}
    for tag, model in models.items():
        tables[f"weyl-{tag}.csv"] = (header, spectra.weyl_table(model, lams))
        nc = spectra.counting_function(model, lam_max)
        lead = spectra.weyl_leading_term(model, lam_max)
        ratios[tag] = abs(nc - lead) / lead
    t10 = spectra.counting_function(models["torus-2"], 10.0)
    s10 = spectra.counting_function(models["sphere-2"], 10.0)
    outputs = {
        "torus_count_at_10": t10,
        "sphere_count_at_10": s10,
        "relative_remainder_at_lam_max": ratios,
        "rows": len(lams),
    }
    passed = t10 == 317 and s10 == 100 and all(v <= 0.05 for v in ratios.values())
    return outputs, passed, tables


def _run_sphere_concentration(cfg):
    worst_kernel = 0.0
    for l, diag in enumerate(sphere.reproducing_kernel_diags(cfg["kernel_lmax"])):
        worst_kernel = max(worst_kernel, abs(diag - (2 * l + 1) / (4.0 * math.pi)))
    worst_equator = 0.0
    for l in range(cfg["equator_lmax"] + 1):
        got = sphere.equator_concentration(l, [0.0, 0.0, 1.0])
        worst_equator = max(worst_equator, abs(got - 1.0 / (2 * l + 3)))
    medians = []
    rows = []
    for l in cfg["band_ls"]:
        rec = sphere.concentration_experiment(
            l, [-1.0 / 3.0, 0.0, 1.0], cfg["trials"], (cfg["seed"], l)
        )
        medians.append(rec["median_sup"])
        rows.append((l, rec["median_sup"], rec["threshold"], rec["exceed_fraction"]))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    outputs = {
        "worst_kernel_error": worst_kernel,
        "worst_equator_error": worst_equator,
        "median_sups": medians,
        "band_ls": list(cfg["band_ls"]),
    }
    passed = worst_kernel <= 1e-8 and worst_equator <= 1e-10 and decreasing
    header = ("degree", "median_sup", "threshold", "exceed_fraction")
    return outputs, passed, {"sphere-concentration.csv": (header, rows)}


def _projection_is_exact(L, trials, seed):
    """Whether quantum_average is idempotent and commutes with the Laplacian
    on `trials` seeded D x D fills, D = (L+1)^2, whose real and imaginary
    parts are uniform on [0, 1).

    The fill's distribution does not matter, only that its entries are
    finite and nonzero, so that a leaked or altered entry shows: a uniform
    complex entry is zero with probability 2^-106.

    (P Lap - Lap P)_ij = P_ij (lap_j - lap_i), and the Laplacian's diagonal
    lap is l(l+1) on the degree-l block: constant on each block and distinct
    across blocks. So P commutes with the Laplacian exactly when every entry
    outside the degree blocks is zero, and each degree-block row strip is
    tested for zeros left and right of its block; a NaN or +-inf entry there
    counts as nonzero.

    At most two D x D complex matrices are alive at once, and none when it
    returns.
    """
    rng = np.random.default_rng(seed)
    D = (L + 1) ** 2
    exact = True
    for _ in range(trials):
        # averaged from the full draw, so a leaked off-block entry shows below
        P = sphere.quantum_average(rng.random((D, 2 * D)).view(complex), L)
        exact &= np.array_equal(P, sphere.quantum_average(P, L))
        for sl in sphere.block_slices(L):
            exact &= not (P[sl, : sl.start].any() or P[sl, sl.stop :].any())
        del P
    return exact


def _run_weinstein(cfg):
    exact = _projection_is_exact(cfg["L"], cfg["trials"], cfg["seed"])
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    lo, hi = sphere.radon_range(V)
    rows = []
    dhs = []
    band_ok = False
    for l in cfg["band_ls"]:
        eigs = np.linalg.eigvalsh(sphere.band_compression(V, l))
        dh = sphere.hausdorff_to_interval(eigs, lo, hi)
        dhs.append(dh)
        rows.append((l, float(eigs.min()), float(eigs.max()), lo, hi, dh))
        if l == cfg["band_check_l"]:
            band_ok = bool(
                eigs.min() >= lo - 3.0 / l and eigs.max() <= hi + 3.0 / l
            )
    decreasing = all(a > b for a, b in zip(dhs, dhs[1:]))
    outputs = {
        "exact_projection": exact,
        "hausdorff_distances": dhs,
        "band_ls": list(cfg["band_ls"]),
        "band_check_l": cfg["band_check_l"],
        "band_within_margin": band_ok,
    }
    header = ("degree", "min_eig", "max_eig", "range_lo", "range_hi", "hausdorff")
    passed = exact and band_ok and decreasing
    return outputs, passed, {"weinstein-band.csv": (header, rows)}


def _run_catmap_egorov(cfg):
    A = standard_map()
    worst = 0.0
    for N in cfg["egorov_ns"]:
        U = catmap.propagator(A, N).U
        Uh = U.conj().T
        for m1 in range(-cfg["m_range"], cfg["m_range"] + 1):
            for m2 in range(-cfg["m_range"], cfg["m_range"] + 1):
                T = catmap.translation_operator(N, (m1, m2))
                Am = (A.a * m1 + A.b * m2, A.c * m1 + A.d * m2)
                TA = catmap.translation_operator(N, Am)
                V = Uh @ T @ U
                theta = np.vdot(TA, V) / N
                err = float(np.abs(V - theta * TA).max())
                worst = max(worst, err, abs(abs(theta) - 1.0))
    del U, Uh  # not held through the period search, which peaks higher
    cpm_5 = catmap.classical_period_mod(A, 5)
    rows = []
    missed = []
    for N in range(1, cfg["period_max_n"] + 1):
        try:
            rec = catmap.quantum_period(catmap.QuantizedCatMap(A, N))
        except NumericalSignal:
            missed.append(N)
            continue
        rows.append(
            (N, rec["classical_period"], rec["period"],
             rec["phase"].real, rec["phase"].imag)
        )
    outputs = {
        "worst_egorov_error": worst,
        "classical_period_mod_5": cpm_5,
        "periods_found": len(rows),
        "periods_missed": missed,
    }
    passed = worst <= 1e-10 and cpm_5 == 10 and not missed
    header = ("N", "classical_period", "quantum_period", "phase_re", "phase_im")
    return outputs, passed, {"catmap-periods.csv": (header, rows)}


def _far_centers(exclusion):
    # centers of the 16 x 16 grid at torus distance >= exclusion from the origin
    out = []
    for i in range(16):
        for j in range(16):
            c = ((i + 0.5) / 16.0, (j + 0.5) / 16.0)
            if math.hypot(min(c[0], 1.0 - c[0]), min(c[1], 1.0 - c[1])) >= exclusion:
                out.append(c)
    return out


def _run_scar(cfg):
    centers = _far_centers(cfg["far_exclusion"])
    G = cfg["grid"]
    masks = catmap.ball_masks(G, centers, cfg["far_radius"])
    A = standard_map()
    rows = []
    mass_ok = far_ok = resid_ok = True
    for N in cfg["n_values"]:
        rec = catmap.scar_record(A, N)
        H = catmap.husimi(rec["state"], G)
        m0 = catmap.mass_in_ball(H, (0.0, 0.0), N ** -0.25)
        # einsum casts the masks in chunks, where `@` would copy them to float
        far = float(np.einsum("kij,ij->k", masks, H).max() / (G * G))
        rows.append((N, rec["period"], m0, far, rec["residual"]))
        mass_ok &= 0.3 <= m0 <= 0.7
        far_ok &= far <= 0.15
        resid_ok &= rec["residual"] <= 1e-6
    outputs = {
        "n_values": list(cfg["n_values"]),
        "masses_at_origin": [r[2] for r in rows],
        "max_far_masses": [r[3] for r in rows],
        "residuals": [r[4] for r in rows],
        "mass_band_ok": bool(mass_ok),
        "far_mass_ok": bool(far_ok),
        "residual_ok": bool(resid_ok),
    }
    header = ("N", "quantum_period", "mass_at_origin", "max_far_mass", "residual")
    passed = bool(mass_ok and far_ok and resid_ok)
    return outputs, passed, {"scar-masses.csv": (header, rows)}


def _run_entropy(cfg):
    A = standard_map()
    chi = A.lyapunov_exponent()
    eps, T = cfg["epsilon"], cfg["horizon"]
    uni = dynamics.ks_entropy_estimate(
        dynamics.uniform_measure(cfg["samples"], cfg["seed"]), A, eps, T
    )
    n_fix = 1000
    fixed_mu = dynamics.EmpiricalMeasure(
        np.zeros((n_fix, 2)), np.full(n_fix, 1.0 / n_fix)
    )
    fix = dynamics.ks_entropy_estimate(fixed_mu, A, eps, T)
    mix = dynamics.ks_entropy_estimate(
        mixture_measure(cfg["samples"] // 2, cfg["seed"]), A, eps, T
    )
    outputs = {
        "uniform_estimate": uni,
        "fixed_point_estimate": fix,
        "mixture_estimate": mix,
        "lyapunov_exponent": chi,
    }
    passed = (
        abs(uni / chi - 1.0) <= 0.15
        and fix <= 0.05
        and abs(mix / (chi / 2.0) - 1.0) <= 0.20
    )
    return outputs, passed, {}


def _run_pressure(cfg):
    A = standard_map()
    chi = A.lyapunov_exponent()
    orbit = ((0, 0),)  # the fixed point at the origin
    p_half = dynamics.pressure_periodic_orbit(A, orbit, 0.5)
    fp_err = abs(p_half - (-chi / 2.0))
    root_orbit = dynamics.bowen_root(
        lambda s: dynamics.pressure_periodic_orbit(A, orbit, s)
    )
    root_shifted = dynamics.bowen_root(lambda s: chi - s * chi)
    root_mid = dynamics.bowen_root(lambda s: 0.5 - s)
    outputs = {
        "pressure_at_half": p_half,
        "fixed_point_error": fp_err,
        "roots": [root_orbit, root_shifted, root_mid],
    }
    passed = (
        fp_err <= 1e-10
        and root_orbit == 0.0
        and root_shifted == 1.0
        and abs(root_mid - 0.5) <= 1e-9
    )
    return outputs, passed, {}


def _run_partition(cfg):
    lo, hi = cfg["window"]
    A = standard_map()
    chi = A.lyapunov_exponent()
    Q = catmap.propagator(A, cfg["n"])
    parts = catmap.smooth_half_cutoff(cfg["n"], cfg["width"])
    norms = catmap.partition_product_norm(Q, parts, [0] * cfg["max_word"])
    incs = [float("nan")] + [math.log(b / a) for a, b in zip(norms, norms[1:])]
    rows = [(M, n, math.log(n), inc) for M, (n, inc) in enumerate(zip(norms, incs), 1)]
    increments = incs[lo - 1:hi]
    window_ok = all(abs(inc - (-chi / 2.0)) <= 0.1 for inc in increments)
    w1, w2 = [0, 1, 0], [1, 0]
    chain = catmap.partition_product_norm(Q, parts, w1 + w2)
    n1, n12 = chain[len(w1) - 1], chain[-1]
    n2 = catmap.partition_product_norm(Q, parts, w2)[-1]
    submult_ok = n12 <= n1 * n2 + 1e-10
    outputs = {
        "per_step_increments": increments,
        "target": -chi / 2.0,
        "window": [lo, hi],
        "submultiplicative_triple": [n1, n2, n12],
    }
    header = ("word_length", "norm", "log_norm", "increment")
    return outputs, window_ok and submult_ok, {"partition-decay.csv": (header, rows)}


class Experiment(NamedTuple):
    fn: Callable  # cfg -> (outputs, passed, {csv file name: (header, rows)})
    description: str
    defaults: dict
    criteria: tuple
    rules: tuple  # (key, rule text, cfg -> bool), checked in order
    reads_seed: bool = True  # False: no output depends on cfg["seed"]


def _ge(key, lo):
    return (key, f"{key} >= {lo}", lambda c: c[key] >= lo)


def _gt(key, lo):
    return (key, f"{key} > {lo}", lambda c: c[key] > lo)


def _all_ge(key, lo):
    return (key, f"{key} nonempty, all >= {lo}", lambda c: bool(c[key]) and min(c[key]) >= lo)


_BAND_LS = ("band_ls", "band_ls has two degrees or more, all >= 1",
            lambda c: len(c["band_ls"]) >= 2 and min(c["band_ls"]) >= 1)

# every experiment's first rule
_SEED_RULE = _ge("seed", 0)

REGISTRY = {
    "torus-l4-sweep": Experiment(
        _run_l4_sweep,
        "max exact L4 norm of seeded random eigenfunctions on every 2-torus shell",
        {"max_m": 10000, "states_per_shell": 1000, "seed": 42},
        (1,),
        (_ge("max_m", 1), _ge("states_per_shell", 1)),
    ),
    "lattice-jarnik": Experiment(
        _run_jarnik,
        "pair-degeneracy bound on all shells plus lattice counts on random short arcs",
        {"max_m": 10000, "arcs_per_radius": 10000,
         "radii_squared": list(ARC_RADII_SQUARED), "seed": 7},
        (2,),
        (_ge("max_m", 1), _ge("arcs_per_radius", 1), _all_ge("radii_squared", 1)),
    ),
    "torus-variance-rate": Experiment(
        _run_variance,
        "decay rate of the quantum variance across full eigenbases as hbar shrinks",
        {"shell_caps": [25, 100, 400, 2500], "seed": 42},
        (3,),
        (("shell_caps", "shell_caps has two distinct caps or more, all >= 1",
          lambda c: len(set(c["shell_caps"])) >= 2 and min(c["shell_caps"]) >= 1),),
    ),
    "torus-egorov": Experiment(
        _run_torus_egorov,
        "flowed-observable matrix elements against a direct amplitude sum",
        {"trials": 100, "max_m": 500, "t_range": 50.0, "seed": 11},
        (4,),
        (_ge("trials", 1), _ge("max_m", 1), _gt("t_range", 0)),
    ),
    "weyl-table": Experiment(
        _run_weyl,
        "exact counting functions against Weyl leading terms, written as CSV",
        {"lam_max": 200.0, "step": 0.5, "seed": 0},
        (5,),
        (_gt("lam_max", 0), _gt("step", 0)),
        reads_seed=False,
    ),
    "sphere-concentration": Experiment(
        _run_sphere_concentration,
        "kernel constancy, equator moments, and sup-deviation medians on the sphere",
        {"kernel_lmax": 100, "equator_lmax": 200, "band_ls": [20, 40, 80],
         "trials": 200, "seed": 2024},
        (6,),
        (_ge("kernel_lmax", 0), _ge("equator_lmax", 0), _BAND_LS, _ge("trials", 1)),
    ),
    "sphere-weinstein": Experiment(
        _run_weinstein,
        "exactness of the spectral average and band spectra against the Radon range",
        {"L": 30, "trials": 50, "band_ls": [10, 20, 40, 80],
         "band_check_l": 40, "seed": 5},
        (7,),
        (_ge("L", 0), _ge("trials", 1), _BAND_LS,
         ("band_check_l", "band_check_l in band_ls",
          lambda c: c["band_check_l"] in c["band_ls"])),
    ),
    "catmap-egorov-periods": Experiment(
        _run_catmap_egorov,
        "exact Egorov intertwining for the quantized cat map plus period detection",
        {"egorov_ns": [21, 55, 89, 144], "m_range": 3, "period_max_n": 512,
         "seed": 0},
        (8,),
        (_all_ge("egorov_ns", 1), _ge("m_range", 1), _ge("period_max_n", 1)),
        reads_seed=False,
    ),
    "catmap-scar": Experiment(
        _run_scar,
        "Husimi mass of period-orbit eigenstates near and away from the fixed point",
        {"n_values": list(catmap.FNDB_ADMISSIBLE_LARGE), "grid": 64,
         "far_radius": 0.1, "far_exclusion": 0.3, "seed": 0},
        (9,),
        (_all_ge("n_values", 1), _ge("grid", 8), _gt("far_radius", 0),
         ("far_exclusion", "a 16 x 16 grid center lies >= far_exclusion from the origin",
          lambda c: bool(_far_centers(c["far_exclusion"])))),
        reads_seed=False,
    ),
    "entropy-oracle": Experiment(
        _run_entropy,
        "Bowen-ball entropy estimates on uniform, atomic, and mixed samples",
        {"samples": 100000, "epsilon": 0.05, "horizon": 12, "seed": 314},
        (10,),
        # the mixture holds samples // 2 + 1 points, and an estimate needs 1000
        (_ge("samples", 1998),
         ("epsilon", "0 < epsilon < 1/4", lambda c: 0 < c["epsilon"] < 0.25),
         _ge("horizon", 2)),
    ),
    "pressure-bowen": Experiment(
        _run_pressure,
        "pressure of the fixed-point orbit and Bowen roots of model pressure curves",
        {"seed": 0},
        (11,),
        (),
        reads_seed=False,
    ),
    "partition-decay": Experiment(
        _run_partition,
        "per-step decay of refined partition products under the cat propagator",
        {"n": 233, "width": 0.1, "max_word": 11, "window": [8, 11], "seed": 0},
        (12,),
        (_ge("n", 1),
         ("width", "0 < width <= 1/4", lambda c: 0 < c["width"] <= 0.25),
         # the increment at word length 1 is NaN
         ("window", "window is [lo, hi] with 2 <= lo <= hi <= max_word",
          lambda c: len(c["window"]) == 2
          and 2 <= c["window"][0] <= c["window"][1] <= c["max_word"])),
        reads_seed=False,
    ),
}

# acceptance check -> experiment exercising it
CRITERIA = {n: name for name, exp in REGISTRY.items() for n in exp.criteria}


def experiment_names():
    return sorted(REGISTRY)


# a config value must have its default's type; bool is not an int here
_TYPES = {
    int: ("an int", lambda v: type(v) is int),
    float: ("a finite float", lambda v: type(v) in (int, float) and math.isfinite(v)),
    list: ("a list of int", lambda v: type(v) is list and all(type(x) is int for x in v)),
}


def config_rules(name):
    """The rules a config of experiment `name` must pass, in checking order."""
    return (_SEED_RULE,) + REGISTRY[name].rules


def _check_config(name, cfg):
    for key, default in REGISTRY[name].defaults.items():
        kind, ok = _TYPES[type(default)]
        if not ok(cfg[key]):
            raise ValueError(f"{name}: {key}={cfg[key]!r} is not {kind}")
    for key, text, ok in config_rules(name):
        if not ok(cfg):
            raise ValueError(f"{name}: {key}={cfg[key]!r} breaks the rule {text}")


def run_experiment(name, overrides=None, out_dir=None):
    """Run one named experiment and return its report dict.

    overrides must only contain keys present in the experiment defaults. The
    merged config is checked before the timer starts: each value must have
    its default's type (int, finite float or list of int; a bool is no int)
    and pass config_rules(name), or ValueError quotes the key and the value.
    When out_dir is given, the experiment's CSV tables and then
    `<name>-report.json` are written there; the report content is
    deterministic for a fixed config apart from wall_time_s.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown experiment {name!r}; see experiment_names()")
    exp = REGISTRY[name]
    cfg = dict(exp.defaults)
    for key, value in (overrides or {}).items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for {name}")
        cfg[key] = value
    _check_config(name, cfg)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    outputs, passed, tables = exp.fn(cfg)
    if out_dir:
        for file_name, (header, rows) in tables.items():
            _write_csv(os.path.join(out_dir, file_name), header, rows)
    report = {
        "experiment": name,
        "inputs": cfg,
        "outputs": outputs,
        "pass": bool(passed),
        "wall_time_s": time.perf_counter() - start,
    }
    if out_dir:
        path = os.path.join(out_dir, f"{name}-report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, ensure_ascii=False, indent=2)
            fh.write("\n")
    return report
