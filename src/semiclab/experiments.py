"""Named, seeded experiments with JSON reports and CSV sidecars.

Every experiment is registered with documented defaults and a note on which
acceptance checks it covers. run_experiment merges config overrides over the
defaults (unknown keys are rejected), executes, writes any data files, and
returns a report dict. For a fixed config the report content is
deterministic except for the wall-time field.
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


def _run_l4_sweep(cfg, out_dir):
    bound = 3.0 / TWO_PI**2
    rows = []
    best_val, best_m = 0.0, 0
    for shell in _shells(cfg["max_m"]):
        m = shell.radius_squared
        vals = torus.l4_batch(shell, cfg["states_per_shell"], (cfg["seed"], m))
        top = float(vals.max())
        rows.append((m, len(shell), top))
        if top > best_val:
            best_val, best_m = top, m
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "l4-sweep.csv"),
            ("radius_squared", "shell_size", "max_l4"),
            rows,
        )
    outputs = {
        "bound": bound,
        "max_l4": best_val,
        "argmax_radius_squared": best_m,
        "shells": len(rows),
    }
    return outputs, best_val <= bound + 1e-12


def _run_jarnik(cfg, out_dir):
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
        v = np.asarray(shell.vectors, dtype=float)
        T = math.sqrt(m)
        ell = (2.0 * T) ** (1.0 / 3.0)
        half = ell / (2.0 * T)
        ang = np.arctan2(v[:, 1], v[:, 0])
        thetas = rng.uniform(0.0, TWO_PI, cfg["arcs_per_radius"])
        # blocks of 1024 arcs keep the (arcs, s) temporaries small
        mx = max(
            int((np.abs((ang - th[:, None] + math.pi) % TWO_PI - math.pi) <= half)
                .sum(axis=1).max())
            for th in np.split(thetas, range(1024, len(thetas), 1024))
        )
        rows.append((m, len(shell), ell, mx))
        worst_arc = max(worst_arc, mx)
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "jarnik-arcs.csv"),
            ("radius_squared", "shell_size", "arc_length", "max_count"),
            rows,
        )
    outputs = {
        "max_pair_degeneracy": worst_pair,
        "max_arc_count": worst_arc,
        "radii_squared": list(cfg["radii_squared"]),
    }
    return outputs, worst_pair <= 2 and worst_arc <= 2


def _run_variance(cfg, out_dir):
    caps = tuple(cfg["shell_caps"])
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
    if out_dir:
        header = ("shell_cap", "hbar") + tuple(
            f"variance_cos_{p[0]}_{p[1]}" for p in VARIANCE_MOMENTA
        )
        rows = [
            (M, float(h)) + tuple(float(x) for x in table[r])
            for r, (M, h) in enumerate(zip(caps, hbars))
        ]
        _write_csv(os.path.join(out_dir, "variance-rate.csv"), header, rows)
    outputs = {
        "momenta": [list(p) for p in VARIANCE_MOMENTA],
        "slopes": slopes,
        "basis_sizes": sizes,
        "max_variance_over_hbar": float((table / hbars[:, None]).max()),
    }
    return outputs, all(s >= 0.9 for s in slopes)


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


def _run_torus_egorov(cfg, out_dir):
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
    return outputs, passed


def _run_weyl(cfg, out_dir):
    lam_max = float(cfg["lam_max"])
    step = float(cfg["step"])
    lams = [step * i for i in range(1, int(round(lam_max / step)) + 1)]
    models = {
        "torus-2": spectra.SpectrumModel("torus-n", 2),
        "sphere-2": spectra.SpectrumModel("sphere-2"),
    }
    ratios = {}
    for tag, model in models.items():
        if out_dir:
            spectra.write_weyl_csv(os.path.join(out_dir, f"weyl-{tag}.csv"), model, lams)
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
    return outputs, passed


def _run_sphere_concentration(cfg, out_dir):
    worst_kernel = 0.0
    for l in range(cfg["kernel_lmax"] + 1):
        diag = sphere.reproducing_kernel_diag(l)
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
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "sphere-concentration.csv"),
            ("degree", "median_sup", "threshold", "exceed_fraction"),
            rows,
        )
    outputs = {
        "worst_kernel_error": worst_kernel,
        "worst_equator_error": worst_equator,
        "median_sups": medians,
        "band_ls": list(cfg["band_ls"]),
    }
    passed = worst_kernel <= 1e-8 and worst_equator <= 1e-10 and decreasing
    return outputs, passed


def _run_weinstein(cfg, out_dir):
    L = cfg["L"]
    D = (L + 1) ** 2
    rng = np.random.default_rng(cfg["seed"])
    lap = sphere.laplacian_diagonal(L)
    exact = True
    for _ in range(cfg["trials"]):
        B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        P = sphere.quantum_average(B, L)
        if not np.array_equal(P, sphere.quantum_average(P, L)):
            exact = False
        if np.any(P * lap[None, :] != lap[:, None] * P):
            exact = False
    V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 4)
    rows = []
    dhs = []
    band_ok = False
    for l in cfg["band_ls"]:
        rec = sphere.band_spectrum_vs_radon(V, l)
        eigs = rec["band_eigenvalues"]
        lo, hi = rec["radon_range"]
        dhs.append(rec["hausdorff"])
        rows.append((l, float(eigs.min()), float(eigs.max()), lo, hi, rec["hausdorff"]))
        if l == cfg["band_check_l"]:
            band_ok = bool(
                eigs.min() >= lo - 3.0 / l and eigs.max() <= hi + 3.0 / l
            )
    decreasing = all(a > b for a, b in zip(dhs, dhs[1:]))
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "weinstein-band.csv"),
            ("degree", "min_eig", "max_eig", "range_lo", "range_hi", "hausdorff"),
            rows,
        )
    outputs = {
        "exact_projection": exact,
        "hausdorff_distances": dhs,
        "band_ls": list(cfg["band_ls"]),
        "band_check_l": cfg["band_check_l"],
        "band_within_margin": band_ok,
    }
    return outputs, exact and band_ok and decreasing


def _run_catmap_egorov(cfg, out_dir):
    A = standard_map()
    worst = 0.0
    for N in cfg["egorov_ns"]:
        Q = catmap.propagator(A, N)
        for m1 in range(-cfg["m_range"], cfg["m_range"] + 1):
            for m2 in range(-cfg["m_range"], cfg["m_range"] + 1):
                T = catmap.translation_operator(N, (m1, m2))
                Am = (A.a * m1 + A.b * m2, A.c * m1 + A.d * m2)
                TA = catmap.translation_operator(N, Am)
                V = Q.U.conj().T @ T @ Q.U
                theta = np.trace(TA.conj().T @ V) / N
                err = float(np.abs(V - theta * TA).max())
                worst = max(worst, err, abs(abs(theta) - 1.0))
    cpm_ok = catmap.classical_period_mod(A, 5) == 10
    rows = []
    missed = []
    for N in range(1, cfg["period_max_n"] + 1):
        Q = catmap.propagator(A, N)
        try:
            rec = catmap.quantum_period(Q)
        except NumericalSignal:
            missed.append(N)
            continue
        rows.append(
            (N, catmap.classical_period_mod(A, N), rec["period"],
             rec["phase"].real, rec["phase"].imag)
        )
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "catmap-periods.csv"),
            ("N", "classical_period", "quantum_period", "phase_re", "phase_im"),
            rows,
        )
    outputs = {
        "worst_egorov_error": worst,
        "classical_period_mod_5": catmap.classical_period_mod(A, 5),
        "periods_found": len(rows),
        "periods_missed": missed,
    }
    passed = worst <= 1e-10 and cpm_ok and not missed
    return outputs, passed


def _run_scar(cfg, out_dir):
    A = standard_map()
    rows = []
    mass_ok = far_ok = resid_ok = True
    for N in cfg["n_values"]:
        rec = catmap.scar_record(A, N)
        H = catmap.husimi(rec["state"], cfg["grid"])
        m0 = catmap.mass_in_ball(H, (0.0, 0.0), N ** -0.25)
        far = 0.0
        for i in range(16):
            for j in range(16):
                c = ((i + 0.5) / 16.0, (j + 0.5) / 16.0)
                dx = min(c[0], 1.0 - c[0])
                dy = min(c[1], 1.0 - c[1])
                if math.hypot(dx, dy) < cfg["far_exclusion"]:
                    continue
                far = max(far, catmap.mass_in_ball(H, c, cfg["far_radius"]))
        rows.append((N, rec["period"], m0, far, rec["residual"]))
        mass_ok &= 0.3 <= m0 <= 0.7
        far_ok &= far <= 0.15
        resid_ok &= rec["residual"] <= 1e-6
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "scar-masses.csv"),
            ("N", "quantum_period", "mass_at_origin", "max_far_mass", "residual"),
            rows,
        )
    outputs = {
        "n_values": list(cfg["n_values"]),
        "masses_at_origin": [r[2] for r in rows],
        "max_far_masses": [r[3] for r in rows],
        "residuals": [r[4] for r in rows],
        "mass_band_ok": bool(mass_ok),
        "far_mass_ok": bool(far_ok),
        "residual_ok": bool(resid_ok),
    }
    return outputs, bool(mass_ok and far_ok and resid_ok)


def _run_entropy(cfg, out_dir):
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
    return outputs, passed


def _run_pressure(cfg, out_dir):
    from fractions import Fraction

    A = standard_map()
    chi = A.lyapunov_exponent()
    orbit = dynamics.PeriodicOrbit(A, ((Fraction(0), Fraction(0)),), 1)
    p_half = dynamics.pressure_periodic_orbit(orbit, 0.5)
    fp_err = abs(p_half - (-chi / 2.0))
    root_orbit = dynamics.bowen_root(
        lambda s: dynamics.pressure_periodic_orbit(orbit, s)
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
    return outputs, passed


def _run_partition(cfg, out_dir):
    A = standard_map()
    chi = A.lyapunov_exponent()
    Q = catmap.propagator(A, cfg["n"])
    parts = catmap.smooth_half_cutoff(cfg["n"], cfg["width"])
    lo, hi = cfg["window"]
    norms = []
    rows = []
    increments = []
    for M in range(1, cfg["max_word"] + 1):
        norm = catmap.partition_product_norm(Q, parts, [0] * M)
        inc = math.log(norm / norms[-1]) if norms else float("nan")
        norms.append(norm)
        rows.append((M, norm, math.log(norm), inc))
        if lo <= M <= hi:
            increments.append(inc)
    window_ok = all(abs(inc - (-chi / 2.0)) <= 0.1 for inc in increments)
    w1, w2 = [0, 1, 0], [1, 0]
    n1 = catmap.partition_product_norm(Q, parts, w1)
    n2 = catmap.partition_product_norm(Q, parts, w2)
    n12 = catmap.partition_product_norm(Q, parts, w1 + w2)
    submult_ok = n12 <= n1 * n2 + 1e-10
    if out_dir:
        _write_csv(
            os.path.join(out_dir, "partition-decay.csv"),
            ("word_length", "norm", "log_norm", "increment"),
            rows,
        )
    outputs = {
        "per_step_increments": increments,
        "target": -chi / 2.0,
        "window": [lo, hi],
        "submultiplicative_triple": [n1, n2, n12],
    }
    return outputs, window_ok and submult_ok


class Experiment(NamedTuple):
    fn: Callable
    description: str
    defaults: dict
    criteria: tuple


REGISTRY = {
    "torus-l4-sweep": Experiment(
        _run_l4_sweep,
        "max exact L4 norm of seeded random eigenfunctions on every 2-torus shell",
        {"max_m": 10000, "states_per_shell": 1000, "seed": 42},
        (1,),
    ),
    "lattice-jarnik": Experiment(
        _run_jarnik,
        "pair-degeneracy bound on all shells plus lattice counts on random short arcs",
        {"max_m": 10000, "arcs_per_radius": 10000,
         "radii_squared": list(ARC_RADII_SQUARED), "seed": 7},
        (2,),
    ),
    "torus-variance-rate": Experiment(
        _run_variance,
        "decay rate of the quantum variance across full eigenbases as hbar shrinks",
        {"shell_caps": [25, 100, 400, 2500], "seed": 42},
        (3,),
    ),
    "torus-egorov": Experiment(
        _run_torus_egorov,
        "flowed-observable matrix elements against a direct amplitude sum",
        {"trials": 100, "max_m": 500, "t_range": 50.0, "seed": 11},
        (4,),
    ),
    "weyl-table": Experiment(
        _run_weyl,
        "exact counting functions against Weyl leading terms, written as CSV",
        {"lam_max": 200.0, "step": 0.5, "seed": 0},
        (5,),
    ),
    "sphere-concentration": Experiment(
        _run_sphere_concentration,
        "kernel constancy, equator moments, and sup-deviation medians on the sphere",
        {"kernel_lmax": 100, "equator_lmax": 200, "band_ls": [20, 40, 80],
         "trials": 200, "seed": 2024},
        (6,),
    ),
    "sphere-weinstein": Experiment(
        _run_weinstein,
        "exactness of the spectral average and band spectra against the Radon range",
        {"L": 30, "trials": 50, "band_ls": [10, 20, 40, 80],
         "band_check_l": 40, "seed": 5},
        (7,),
    ),
    "catmap-egorov-periods": Experiment(
        _run_catmap_egorov,
        "exact Egorov intertwining for the quantized cat map plus period detection",
        {"egorov_ns": [21, 55, 89, 144], "m_range": 3, "period_max_n": 512,
         "seed": 0},
        (8,),
    ),
    "catmap-scar": Experiment(
        _run_scar,
        "Husimi mass of period-orbit eigenstates near and away from the fixed point",
        {"n_values": list(catmap.FNDB_ADMISSIBLE_LARGE), "grid": 64,
         "far_radius": 0.1, "far_exclusion": 0.3, "seed": 0},
        (9,),
    ),
    "entropy-oracle": Experiment(
        _run_entropy,
        "Bowen-ball entropy estimates on uniform, atomic, and mixed samples",
        {"samples": 100000, "epsilon": 0.05, "horizon": 12, "seed": 314},
        (10,),
    ),
    "pressure-bowen": Experiment(
        _run_pressure,
        "pressure of the fixed-point orbit and Bowen roots of model pressure curves",
        {"seed": 0},
        (11,),
    ),
    "partition-decay": Experiment(
        _run_partition,
        "per-step decay of refined partition products under the cat propagator",
        {"n": 233, "width": 0.1, "max_word": 11, "window": [8, 11], "seed": 0},
        (12,),
    ),
}

# acceptance check -> experiment exercising it
CRITERIA = {
    1: "torus-l4-sweep",
    2: "lattice-jarnik",
    3: "torus-variance-rate",
    4: "torus-egorov",
    5: "weyl-table",
    6: "sphere-concentration",
    7: "sphere-weinstein",
    8: "catmap-egorov-periods",
    9: "catmap-scar",
    10: "entropy-oracle",
    11: "pressure-bowen",
    12: "partition-decay",
}


def experiment_names():
    return sorted(REGISTRY)


def run_experiment(name, overrides=None, out_dir=None):
    """Run one named experiment and return its report dict.

    overrides must only contain keys present in the experiment defaults.
    When out_dir is given, data files and `<name>-report.json` are written
    there; the report content is deterministic for a fixed config apart
    from wall_time_s.
    """
    if name not in REGISTRY:
        raise ValueError(f"unknown experiment {name!r}; see experiment_names()")
    exp = REGISTRY[name]
    cfg = dict(exp.defaults)
    for key, value in (overrides or {}).items():
        if key not in cfg:
            raise ValueError(f"unknown config key {key!r} for {name}")
        cfg[key] = value
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    outputs, passed = exp.fn(cfg, out_dir)
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
