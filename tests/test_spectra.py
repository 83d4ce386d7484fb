import csv
import math

import pytest

from semiclab import experiments, spectra
from semiclab.lattice import count_in_ball


def test_model_validation():
    with pytest.raises(ValueError):
        spectra.SpectrumModel("klein-bottle")
    with pytest.raises(ValueError):
        spectra.SpectrumModel("sphere-2", 3)
    with pytest.raises(ValueError):
        spectra.SpectrumModel("torus-n", 0)


def test_torus_counting_matches_lattice():
    model = spectra.SpectrumModel("torus-n", 2)
    for lam in (0.0, 1.0, 2.5, 10.0, 31.4):
        assert spectra.counting_function(model, lam) == count_in_ball(lam, 2)
    assert spectra.counting_function(model, 10.0) == 317
    model3 = spectra.SpectrumModel("torus-n", 3)
    assert spectra.counting_function(model3, 2.0) == count_in_ball(2.0, 3)


def test_torus_counting_boundary_tie():
    model = spectra.SpectrumModel("torus-n", 2)
    at = spectra.counting_function(model, 5.0)
    below = spectra.counting_function(model, math.nextafter(5.0, 0.0))
    assert at - below == 12


def test_sphere_counting_squares():
    model = spectra.SpectrumModel("sphere-2")
    # brute force: eigenvalues l(l+1) with multiplicity 2l+1
    for lam in (0.0, 1.0, 1.5, 3.0, 10.0, 50.25):
        brute = sum(2 * l + 1 for l in range(200) if l * (l + 1) <= lam * lam)
        assert spectra.counting_function(model, lam) == brute
    assert spectra.counting_function(model, 10.0) == 100


def test_leading_terms():
    torus = spectra.SpectrumModel("torus-n", 2)
    assert spectra.weyl_leading_term(torus, 10.0) == pytest.approx(100 * math.pi)
    torus3 = spectra.SpectrumModel("torus-n", 3)
    assert spectra.weyl_leading_term(torus3, 2.0) == pytest.approx(4 * math.pi / 3 * 8)
    sph = spectra.SpectrumModel("sphere-2")
    assert spectra.weyl_leading_term(sph, 7.0) == 49.0
    with pytest.raises(ValueError):
        spectra.weyl_leading_term(torus, 0.0)


def test_counting_rejects_non_finite_lam():
    for model in (spectra.SpectrumModel("torus-n", 2), spectra.SpectrumModel("sphere-2")):
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"need finite lam >= 0: lam={lam!r}"):
                spectra.counting_function(model, lam)
            with pytest.raises(ValueError, match=f"need finite lam > 0: lam={lam!r}"):
                spectra.weyl_leading_term(model, lam)


def test_remainder_regression_constants():
    # |count - leading| <= C * lam on a half-integer grid up to 500; the
    # maxima are exact integer computations, pinned with small slack
    lams = [0.5 * i for i in range(1, 1001)]
    torus = spectra.SpectrumModel("torus-n", 2)
    worst_t = max(
        abs(spectra.counting_function(torus, lam) - spectra.weyl_leading_term(torus, lam)) / lam
        for lam in lams
    )
    assert worst_t <= 1.86
    sph = spectra.SpectrumModel("sphere-2")
    worst_s = max(
        abs(spectra.counting_function(sph, lam) - spectra.weyl_leading_term(sph, lam)) / lam
        for lam in lams
    )
    assert worst_s <= 1.51


def test_weyl_table_rows():
    model = spectra.SpectrumModel("sphere-2")
    rows = spectra.weyl_table(model, [1.0, 2.0, 10.0])
    assert len(rows) == 3
    lam, count, lead, rem = rows[2]
    assert (lam, count, lead) == (10.0, 100, 100.0)
    assert rem == count - lead


def test_weyl_csv_format(tmp_path):
    experiments.run_experiment("weyl-table", {"lam_max": 10.0, "step": 5.0}, tmp_path)
    with open(tmp_path / "weyl-torus-2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "count", "leading", "remainder"]
    assert all(len(r) == 4 for r in rows)
    assert [r[0] for r in rows[1:]] == ["5.0", "10.0"]
    assert int(rows[2][1]) == 317
    assert float(rows[2][2]) == pytest.approx(100 * math.pi)
    assert float(rows[2][3]) == 317 - float(rows[2][2])


def test_weyl_rows_stop_at_lam_max(tmp_path):
    # 1.1 is no multiple of 0.2: the table ends at the last multiple below it
    report = experiments.run_experiment("weyl-table", {"lam_max": 1.1, "step": 0.2}, tmp_path)
    assert report["outputs"]["rows"] == 5
    for tag in ("torus-2", "sphere-2"):
        with open(tmp_path / f"weyl-{tag}.csv", newline="") as fh:
            lams = [float(r[0]) for r in list(csv.reader(fh))[1:]]
        assert len(lams) == 5 and lams[-1] == 1.0, tag
