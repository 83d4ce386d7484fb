"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return run.load_refs(0)


def _write_output(exp_dir, name, ref):
    os.makedirs(exp_dir)
    report = {k: v for k, v in ref.items() if k != "files"}
    report["wall_time_s"] = 1.0
    with open(os.path.join(exp_dir, f"{name}-report.json"), "w") as fh:
        json.dump(report, fh)
    for fname, rows in ref["files"].items():
        with open(os.path.join(exp_dir, fname), "w") as fh:
            for row in rows:
                fh.write(",".join(repr(c) if isinstance(c, float) else str(c) for c in row))
                fh.write("\n")


def test_references_cover_every_experiment_and_seed_set():
    from semiclab import experiments

    assert sorted(run.EXPERIMENTS) == experiments.experiment_names()
    for seed_set in range(run.SEED_SETS):
        assert sorted(run.load_refs(seed_set)) == sorted(run.EXPERIMENTS)


@pytest.mark.parametrize("perturb", [
    lambda r: r["outputs"].__setitem__("torus_count_at_10", 318),
    lambda r: r["outputs"]["relative_remainder_at_lam_max"].__setitem__(
        "torus-2", r["outputs"]["relative_remainder_at_lam_max"]["torus-2"] * (1 + 1e-7)),
    lambda r: r.__setitem__("pass", False),
    lambda r: r["files"]["weyl-torus-2.csv"][5].__setitem__(1, 0),
    lambda r: r["files"]["weyl-sphere-2.csv"].pop(),
])
def test_perturbed_output_counts_as_failure(tmp_path, refs, perturb):
    got = copy.deepcopy(refs["weyl-table"])
    perturb(got)
    _write_output(tmp_path / "weyl-table", "weyl-table", got)
    result = {"out_dir": str(tmp_path), "errors": {"weyl-table": None}}
    failed, passed, lines = run.check_pass(result, refs)
    assert failed == 1 and lines


def test_unchanged_output_and_roundoff_pass(tmp_path, refs):
    got = copy.deepcopy(refs["weyl-table"])
    ratios = got["outputs"]["relative_remainder_at_lam_max"]
    ratios["torus-2"] *= 1 + 1e-13
    _write_output(tmp_path / "weyl-table", "weyl-table", got)
    result = {"out_dir": str(tmp_path), "errors": {"weyl-table": None}}
    assert run.check_pass(result, refs) == (0, 1, [])


def test_raised_experiment_counts_as_failure(refs):
    result = {"out_dir": "", "errors": {"weyl-table": "NumericalSignal: x"}}
    failed, passed, lines = run.check_pass(result, refs)
    assert (failed, passed) == (1, 0)


def test_mismatch_rules():
    nan = float("nan")
    assert run.mismatches([1, True, nan, "a"], [1, True, nan, "a"]) == []
    assert run.mismatches(1, 2) and run.mismatches(True, 1) and run.mismatches(False, True)
    assert run.mismatches(0.25, 0.25 * (1 + 1e-12)) == []
    assert run.mismatches(0.25, 0.25 * (1 + 1e-8))
    assert run.mismatches({"a": 1}, {"b": 1}) and run.mismatches([1], [1, 2])


def _module_state():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "semiclab" or name.startswith("semiclab.")}


def test_tracer_records_spans_and_leaves_no_wrapper():
    from semiclab import lattice, spectra, torus

    for layer in spans.LAYERS:
        __import__(f"semiclab.{layer}")
    before = _module_state()
    with spans.Tracer() as tracer:
        assert hasattr(lattice.enumerate_shell, "__wrapped__")
        shell = lattice.enumerate_shell(25, 2)
        torus.l4_batch(shell, 3, 1)
        spectra.counting_function(spectra.SpectrumModel("torus-n", 2), 10.0)
    after = _module_state()
    assert before.keys() == after.keys()
    for name in before:
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert changed == [], name
    assert not hasattr(lattice.enumerate_shell, "__wrapped__")
    stats = spans.summarize(tracer.names, tracer.spans)
    assert stats["lattice.enumerate_shell"]["work"] == len(shell)
    assert stats["torus.l4_batch"]["work"] == 3 * len(shell)
    assert stats["_kernels.l4_moment_sums"]["calls"] == 1
    # count_in_ball is imported into spectra by name and still traced there
    assert stats["lattice.count_in_ball"]["calls"] == 1
    assert stats["spectra.counting_function"]["calls"] == 1


def test_self_time_subtracts_direct_children():
    names = ["a", "b", "c"]
    rows = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0], [2, 2.0, 3.0, 1, 0],
            [1, 5.0, 6.0, 0, 0]]
    stats = spans.summarize(names, rows)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0)
    assert stats["b"]["s"] == pytest.approx(4.0)
    assert stats["c"]["calls"] == 1
    assert spans.roots(rows) == [0, 0, 0, 0]


def test_times_are_rescaled_by_the_speed_probe():
    # a pass that ran while the probe took twice its reference time counts half
    ref = run.PROBE_REF_S
    passes = [{"wall_s": 20.0, "cpu_s": 30.0, "peak_rss_mb": 100.0, "checks_passed": 2,
               "probe_s": 2 * ref}]
    probes = [{"launch": 1.0, "ready": 1.8, "probe_s": ref / 2}]
    e2e = run.end_to_end(passes, probes, attempted=2, failed=0)
    assert e2e["wall_s"] == [pytest.approx(10.0)]
    assert e2e["cpu_s"] == [pytest.approx(15.0)]
    assert e2e["setup_s"] == [pytest.approx(1.6)]
    assert e2e["peak_rss_mb"] == [100.0]


def test_speed_probe_samples_only_while_installed():
    import worker

    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    probe = worker.SpeedProbe()
    with probe:
        busy(0.7)
    taken = len(probe.samples)
    assert taken >= 2 and probe.cpu_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    busy(0.3)
    assert len(probe.samples) == taken


def test_worker_pass_reports_probe_and_time_without_it(tmp_path):
    import worker

    spec = {"root": ROOT, "experiments": ["torus-variance-rate"], "seed_offset": 0,
            "out_dir": str(tmp_path / "out"), "trace": False,
            "result": str(tmp_path / "result.json")}
    worker.main(spec)
    with open(spec["result"]) as fh:
        result = json.load(fh)
    assert result["errors"] == {"torus-variance-rate": None}
    assert result["probe_s"] > 0
    # the experiment's own clock includes the probe's samples; the pass's does not
    assert 0 < result["wall_s"] < result["experiment_wall_s"]["torus-variance-rate"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.per_layer_spec()


def test_metric_functions_produce_exactly_the_declared_names():
    ref = run.PROBE_REF_S
    passes = [{"wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 100.0, "checks_passed": 2,
               "probe_s": ref}]
    probes = [{"launch": 1.0, "ready": 1.5, "probe_s": ref},
              {"launch": 2.0, "ready": 2.6, "probe_s": ref}]
    e2e = run.end_to_end(passes, probes, attempted=2, failed=0)
    assert list(e2e) == [name for name, _, _ in run.END_TO_END]
    names = ["experiments.run_experiment", "catmap.propagator", "case.l4",
             "torus.l4_batch", "_kernels.l4_moment_sums", "case.bowen", "case.husimi"]
    rows = [[0, 0.0, 5.0, -1, 0], [1, 1.0, 2.0, 0, 0],
            [0, 5.0, 6.0, -1, 0],
            [2, 7.0, 8.0, -1, 0], [3, 7.0, 7.9, 3, 10], [4, 7.1, 7.8, 4, 0],
            [5, 8.0, 9.0, -1, 0], [6, 9.0, 10.0, -1, 0]]
    out = run.layer_metrics(names, rows, "catmap-dense", 5.5, 6.0, 0.3)
    assert list(out) == [name for name, _, _ in run.per_layer_spec()]
    assert out["experiments.catmap-egorov-periods.wall_s"] == 5.0
    assert out["experiments.partition-decay.wall_s"] == 1.0
    assert out["catmap.propagator.calls"] == 1
    # the fixed case is kept out of the workload's layer times
    assert out["torus.l4_batch.calls"] == 0
    assert out["torus.l4_batch.case_s"] == pytest.approx(0.9)
    assert out["kernels.l4_moment_sums.case_s"] == pytest.approx(0.7)
    assert out["trace.overhead_s"] == pytest.approx(0.5)
