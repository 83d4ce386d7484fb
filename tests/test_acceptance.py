"""Acceptance runs: every registered experiment at its full default config.

Each test prints one `[check N] PASS/FAIL` line (visible under `pytest -s`)
and asserts the report's pass flag at the experiment's stated tolerances.
"""

from semiclab import experiments


def _run_check(n, tmp_path):
    name = experiments.CRITERIA[n]
    report = experiments.run_experiment(name, {}, str(tmp_path))
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"[check {n:2d}] {verdict} {name} ({report['wall_time_s']:.2f}s)")
    return report


def test_registry_covers_all_checks():
    # CRITERIA is derived from the registry, where a duplicate would collapse
    assert sum(len(exp.criteria) for exp in experiments.REGISTRY.values()) == 12
    assert sorted(experiments.CRITERIA) == list(range(1, 13))
    assert sorted(set(experiments.CRITERIA.values())) == experiments.experiment_names()
    for n, name in experiments.CRITERIA.items():
        assert n in experiments.REGISTRY[name].criteria
    for name, exp in experiments.REGISTRY.items():
        assert exp.criteria == tuple(k for k, v in experiments.CRITERIA.items() if v == name)


def test_check_01_torus_l4_bound(tmp_path):
    report = _run_check(1, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_02_lattice_pairs_and_arcs(tmp_path):
    report = _run_check(2, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_03_variance_decay_rate(tmp_path):
    report = _run_check(3, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_04_torus_egorov_exact(tmp_path):
    report = _run_check(4, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_05_weyl_counting(tmp_path):
    report = _run_check(5, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_06_sphere_concentration(tmp_path):
    report = _run_check(6, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_07_band_spectra_vs_radon(tmp_path):
    report = _run_check(7, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_08_catmap_egorov_periods(tmp_path):
    report = _run_check(8, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_09_scar_mass_band(tmp_path):
    # scarred-state origin masses at the listed N all measure below the
    # required band (0.096-0.204), so this check currently fails; the band
    # is asserted as stated rather than widened to fit the measurements.
    # Diagnosis against Faure-Nonnenmacher-De Bievre (CMP 239, 2003), whose
    # half-mass theorem assumes minimal periods T_N ~ 2 ln N / chi:
    # - T_N / (ln N / chi) runs from 2.21 (N=682) to 3.88 (N=1705);
    # - scar_record always picks the r = 0 eigenspace, the plain symmetric
    #   sum lands within 0.04 of the projected mass, and the best of all T_N
    #   eigenphase projections reaches at most 0.249;
    # - at minimal period (ratio 2.00: N=521, T=13 and N=1364, T=15) the
    #   masses are 0.243 and 0.194;
    # - the theorem is a weak limit (1/2 delta_0 + 1/2 Leb) for fixed test
    #   functions, while this check measures a ball of radius N^(-1/4); a
    #   term U^t phi_0 has extent ~ N^(-1/2) e^(chi |t|), so only
    #   |t| < ln N / (4 chi), about a quarter of the terms at minimal
    #   period, fits inside it.
    # The band asks for more than the construction is known to give at
    # these N; the program has not been shown to be at fault.
    report = _run_check(9, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_10_entropy_estimates(tmp_path):
    report = _run_check(10, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_11_pressure_roots(tmp_path):
    report = _run_check(11, tmp_path)
    assert report["pass"], report["outputs"]


def test_check_12_partition_decay(tmp_path):
    report = _run_check(12, tmp_path)
    assert report["pass"], report["outputs"]
