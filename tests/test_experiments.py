"""Experiment runners: config rules, unread seeds, where files are written,
who writes them, what sphere-weinstein's exactness check holds in memory,
and the L4 sweep on several threads."""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from semiclab import catmap, experiments, lattice, sphere, torus
from semiclab._errors import NumericalSignal

SRC = pathlib.Path(experiments.__file__).parent


@pytest.mark.parametrize(
    "name, overrides, key",
    [
        # configs that used to crash with an error naming no key
        ("lattice-jarnik", {"radii_squared": [0]}, "radii_squared"),
        ("lattice-jarnik", {"arcs_per_radius": 0}, "arcs_per_radius"),
        ("weyl-table", {"step": 0}, "step"),
        # configs on which the check used to pass with nothing tested
        ("partition-decay", {"window": [20, 30]}, "window"),
        ("partition-decay", {"window": [9, 8]}, "window"),
        ("torus-egorov", {"trials": 0}, "trials"),
        ("torus-variance-rate", {"shell_caps": [25]}, "shell_caps"),
        ("torus-variance-rate", {"shell_caps": [25, 25]}, "shell_caps"),
        ("lattice-jarnik", {"radii_squared": []}, "radii_squared"),
        ("lattice-jarnik", {"max_m": 0}, "max_m"),
        ("torus-l4-sweep", {"max_m": 0}, "max_m"),
        ("catmap-scar", {"n_values": []}, "n_values"),
        ("catmap-egorov-periods", {"egorov_ns": []}, "egorov_ns"),
        ("catmap-egorov-periods", {"period_max_n": 0}, "period_max_n"),
        ("sphere-concentration", {"band_ls": [20]}, "band_ls"),
        ("sphere-weinstein", {"band_ls": [40]}, "band_ls"),
        # checks that could never pass
        ("sphere-weinstein", {"band_check_l": 30}, "band_check_l"),
        ("partition-decay", {"window": [1, 11]}, "window"),
        # a config on which the check passed with nothing tested
        ("sphere-weinstein", {"trials": 0}, "trials"),
        # configs that crashed with an error naming no key
        ("torus-egorov", {"max_m": 0}, "max_m"),
        ("torus-variance-rate", {"shell_caps": [0, 25]}, "shell_caps"),
        # configs on which the check passed with nothing tested
        ("catmap-scar", {"far_exclusion": 0.7}, "far_exclusion"),
        ("catmap-scar", {"far_radius": 0.0}, "far_radius"),
        ("sphere-concentration", {"kernel_lmax": -1}, "kernel_lmax"),
        ("sphere-concentration", {"equator_lmax": -1}, "equator_lmax"),
        # values of the wrong type, which crashed naming no key
        ("torus-l4-sweep", {"max_m": "10"}, "max_m"),
        ("torus-l4-sweep", {"max_m": 10.5}, "max_m"),
        ("lattice-jarnik", {"arcs_per_radius": 2.5}, "arcs_per_radius"),
        ("torus-variance-rate", {"shell_caps": [25, 100.0]}, "shell_caps"),
        ("lattice-jarnik", {"radii_squared": 25}, "radii_squared"),
        ("weyl-table", {"lam_max": "20"}, "lam_max"),
        ("entropy-oracle", {"horizon": 12.5}, "horizon"),
        ("torus-egorov", {"t_range": float("inf")}, "t_range"),
        ("torus-egorov", {"t_range": float("nan")}, "t_range"),
        # a bool is no int, in a list or alone
        ("catmap-egorov-periods", {"period_max_n": True}, "period_max_n"),
        ("lattice-jarnik", {"radii_squared": [25, True]}, "radii_squared"),
        ("torus-egorov", {"t_range": True}, "t_range"),
        # the seed of every experiment, read or not
        ("torus-l4-sweep", {"seed": None}, "seed"),
        ("torus-l4-sweep", {"seed": -1}, "seed"),
        ("pressure-bowen", {"seed": -1}, "seed"),
        # bounds that a lower layer checked naming no key, or not at all
        ("sphere-concentration", {"band_ls": [-1, -2]}, "band_ls"),
        ("sphere-weinstein", {"band_ls": [0, 10]}, "band_ls"),
        ("sphere-weinstein", {"L": -1}, "L"),
        ("catmap-egorov-periods", {"m_range": -1}, "m_range"),
        ("catmap-egorov-periods", {"m_range": 0}, "m_range"),
        ("catmap-egorov-periods", {"egorov_ns": [0]}, "egorov_ns"),
        ("weyl-table", {"lam_max": -1.0}, "lam_max"),
        ("partition-decay", {"width": -0.1}, "width"),
        ("partition-decay", {"width": 0.0}, "width"),
        ("partition-decay", {"n": 0}, "n"),
        ("partition-decay", {"window": [8]}, "window"),
        ("entropy-oracle", {"samples": 10}, "samples"),
        ("entropy-oracle", {"epsilon": 0.25}, "epsilon"),
        ("sphere-concentration", {"trials": 0}, "trials"),
        ("torus-l4-sweep", {"states_per_shell": 0}, "states_per_shell"),
        ("torus-egorov", {"t_range": 0.0}, "t_range"),
        ("catmap-scar", {"grid": 0}, "grid"),
        ("catmap-scar", {"n_values": [0]}, "n_values"),
        ("catmap-scar", {"grid": 7}, "grid"),
    ],
)
def test_config_rejected_naming_the_key(name, overrides, key):
    # the message quotes the key and the value's repr
    with pytest.raises(ValueError, match=re.escape(f"{key}={overrides[key]!r}")):
        experiments.run_experiment(name, overrides)


@pytest.mark.parametrize("name", experiments.experiment_names())
def test_defaults_pass_their_own_rules(name):
    exp = experiments.REGISTRY[name]
    experiments._check_config(name, dict(exp.defaults))
    for key, text, _ in experiments.config_rules(name):
        assert key in exp.defaults and key in text, (name, key, text)


def test_rule_boundaries_are_accepted():
    # the smallest configs the rules let through still run
    for name, overrides in (
        ("entropy-oracle", {"samples": 1998, "horizon": 2}),
        ("partition-decay", {"n": 21, "width": 0.25, "max_word": 2, "window": [2, 2]}),
        ("torus-egorov", {"trials": 1, "max_m": 1, "t_range": 1}),
        ("sphere-weinstein", {"L": 0, "trials": 1, "band_ls": [1, 2], "band_check_l": 1}),
        ("catmap-scar", {"grid": 8, "n_values": [504]}),
    ):
        experiments.run_experiment(name, overrides)


def test_no_runner_raises():
    # config policy lives in the rule tables and _check_config alone
    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    runners = {f.name: f for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name.startswith("_run_")}
    assert set(runners) == {exp.fn.__name__ for exp in experiments.REGISTRY.values()}
    for name, fn in runners.items():
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(fn)), name


def _reads_seed(fn):
    # whether the runner's own body reads cfg["seed"]
    tree = ast.parse(inspect.getsource(fn))
    return any(isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
               and n.slice.value == "seed" for n in ast.walk(tree))


def test_reads_seed_flag_matches_the_runner():
    unread = {name for name, exp in experiments.REGISTRY.items() if not exp.reads_seed}
    assert unread == {"weyl-table", "catmap-egorov-periods", "catmap-scar",
                      "pressure-bowen", "partition-decay"}
    for name, exp in experiments.REGISTRY.items():
        assert _reads_seed(exp.fn) == exp.reads_seed, name


@pytest.mark.parametrize("name, overrides", [
    ("weyl-table", {"lam_max": 20.0}),
    ("catmap-egorov-periods", {"egorov_ns": [21], "m_range": 1, "period_max_n": 16}),
    ("catmap-scar", {"n_values": [504]}),
    ("pressure-bowen", {}),
    ("partition-decay", {"n": 55, "max_word": 4, "window": [2, 4]}),
])
def test_unread_seed_changes_nothing(name, overrides):
    exp = experiments.REGISTRY[name]
    assert not exp.reads_seed
    seed = exp.defaults["seed"]
    cfg = dict(exp.defaults, **overrides)
    # compared as repr, which is how the CSV writer prints floats and which
    # holds the NaN increment at word length 1 equal to itself
    first = repr(exp.fn(dict(cfg, seed=seed)))
    assert first == repr(exp.fn(dict(cfg, seed=seed + 1)))


def test_no_out_dir_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report = experiments.run_experiment("weyl-table", {"lam_max": 20.0})
    assert report["pass"]
    assert list(tmp_path.iterdir()) == []


def _write_modes(tree):
    # mode strings of every open(...) call; None when the mode is not a literal
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None:
                yield "r"
            elif isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                yield mode.value
            else:
                yield None


def test_only_experiments_writes_files():
    others = [p for p in sorted(SRC.glob("*.py")) if p.name != "experiments.py"]
    assert "cli.py" in {p.name for p in others}
    for path in others:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names}
        imports |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "csv" not in imports, path.name
        for mode in _write_modes(tree):
            assert mode is not None and not set(mode) & set("wax+"), (path.name, mode)


def test_import_loads_no_scipy():
    # semiclab needs numpy alone, so neither the package nor the CLI pulls
    # scipy in
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for module in ("semiclab.experiments", "semiclab.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]", module


_BLOCK_SCIPY = """
import importlib, pkgutil, sys
import numpy as np

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
import semiclab
for info in pkgutil.iter_modules(semiclab.__path__):
    importlib.import_module("semiclab." + info.name)
from semiclab import catmap, sphere
pairs = catmap.eigenspaces(catmap.propagator(catmap.CatMap(2, 1, 1, 1), 21))
assert sum(V.shape[1] for _, V in pairs) == 21
V = sphere.zonal_from_polynomial([0.0, 0.0, 1.0], 2)
u = sphere.radon_flow(V, np.array([[0.8, 0.0, 0.6]]), 0.5)
assert abs(u[0, 2] - 0.6) < 1e-8
print("ok")
"""


def test_runs_with_scipy_blocked():
    # every module imports, and the two functions that once used scipy run,
    # while any import of scipy raises ImportError
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize(
    "flaw", ["leak-first-row", "leak-last-row", "not-idempotent", "leak-middle-strip"])
def test_projection_check_catches_a_flawed_average(monkeypatch, flaw):
    # a leaked off-block entry keeps the average idempotent, so only the
    # commutation strips see it; a doubled diagonal entry commutes with the
    # Laplacian, so only the idempotence test sees it
    L = 3
    assert experiments._projection_is_exact(L, 2, 0)
    average = sphere.quantum_average

    def flawed(B, L):
        out = average(B, L)
        if flaw == "leak-first-row":
            out[0, -1] = B[0, -1]
        elif flaw == "leak-last-row":
            out[-1, 0] = B[-1, 0]
        elif flaw == "leak-middle-strip":
            out[5, 2] = B[5, 2]
        else:
            out[0, 0] = 2.0 * B[0, 0]
        return out

    monkeypatch.setattr(sphere, "quantum_average", flawed)
    assert not experiments._projection_is_exact(L, 2, 0)


def test_weinstein_trials_average_uniform_fills(monkeypatch):
    # each trial averages the next rng.random((D, 2D)) fill viewed as D x D
    # complex, drawn in sequence from default_rng(seed); every second call
    # is the idempotence test on that average
    L, trials, seed = 3, 3, 5
    D = (L + 1) ** 2
    seen = []
    average = sphere.quantum_average

    def spy(B, L):
        seen.append(np.array(B))
        return average(B, L)

    monkeypatch.setattr(sphere, "quantum_average", spy)
    assert experiments._projection_is_exact(L, trials, seed)
    assert len(seen) == 2 * trials
    rng = np.random.default_rng(seed)
    for B in seen[::2]:
        want = rng.random((D, 2 * D)).view(complex)
        assert B.shape == (D, D) and B.tobytes() == want.tobytes()


_WEINSTEIN = experiments.REGISTRY["sphere-weinstein"].defaults


@pytest.mark.parametrize("L, trials, seed", [
    (3, 2, 0), (30, 2, 5), (_WEINSTEIN["L"], _WEINSTEIN["trials"], _WEINSTEIN["seed"])])
def test_weinstein_fills_have_no_zero_entry(L, trials, seed):
    # a zero entry of a fill would hide a leak into that entry; these are
    # the fills of the tests here and of the default config
    D = (L + 1) ** 2
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        assert rng.random((D, 2 * D)).view(complex).all()


@pytest.mark.parametrize("value", [1e-300, np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
@pytest.mark.parametrize("entry", [(0, 15), (15, 0), (5, 2), (5, 9), (2, 4)])
def test_block_zero_test_flags_every_off_block_entry(monkeypatch, value, entry):
    # with the idempotence test switched off, the strip test alone must see
    # a nonzero, infinite or NaN entry left or right of its strip's block
    # (rows 4..8 form the degree-2 block at L = 3)
    L = 3
    monkeypatch.setattr(np, "array_equal", lambda a, b: True)
    assert experiments._projection_is_exact(L, 2, 0)
    average = sphere.quantum_average

    def flawed(B, L):
        out = average(B, L)
        out[entry] = value
        return out

    monkeypatch.setattr(sphere, "quantum_average", flawed)
    assert not experiments._projection_is_exact(L, 2, 0)


def test_scar_builds_its_far_masks_once(monkeypatch):
    # one call for all far centers; mass_in_ball adds one per N for the
    # origin ball, whose radius N^(-1/4) changes with N
    calls = []
    ball_masks = catmap.ball_masks

    def spy(G, centers, radius):
        calls.append(len(centers))
        return ball_masks(G, centers, radius)

    monkeypatch.setattr(catmap, "ball_masks", spy)
    experiments.run_experiment("catmap-scar", {"n_values": [504, 552]})
    assert calls == [len(experiments._far_centers(0.3)), 1, 1]
    assert len(experiments._far_centers(0.3)) > 1


def test_partition_decay_takes_its_norms_from_three_chains(monkeypatch):
    # one chain for the decay and two for the triple: 3 calls and 10 + 4 + 1
    # dense products of U, where one call per prefix made 14 calls and 62
    words = []
    norm = catmap.partition_product_norm

    def spy(Q, partition, word):
        words.append(list(word))
        return norm(Q, partition, word)

    monkeypatch.setattr(catmap, "partition_product_norm", spy)
    experiments.run_experiment("partition-decay", {})
    assert words == [[0] * 11, [0, 1, 0, 1, 0], [1, 0]]
    assert sum(len(w) - 1 for w in words) == 15


def test_scar_far_mass_is_the_largest_single_ball_mass():
    # reference: one mass_in_ball per far center; the one product sums in
    # another order, so equality is to a few ulps of a mass <= 1
    report = experiments.run_experiment("catmap-scar", {"n_values": [504, 682]})
    for N, far in zip((504, 682), report["outputs"]["max_far_masses"]):
        H = catmap.husimi(catmap.scar_record(catmap.CatMap(2, 1, 1, 1), N)["state"], 64)
        ref = max(catmap.mass_in_ball(H, c, 0.1) for c in experiments._far_centers(0.3))
        assert abs(far - ref) <= 1e-15, (N, far, ref)


def test_weinstein_holds_at_most_two_dense_matrices():
    # each trial's draw, average and full-size products once peaked at 5.16
    # D x D complex matrices
    cfg = {"L": 30, "trials": 2, "band_ls": [10, 80], "band_check_l": 80, "seed": 5}
    D = (cfg["L"] + 1) ** 2
    tracemalloc.start()
    try:
        outputs, passed, _ = experiments._run_weinstein(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs["exact_projection"] and passed
    assert peak <= 2.5 * D * D * 16, peak / (D * D * 16)


_SMALL_SWEEP = {"max_m": 2000, "states_per_shell": 50}


def _force_cores(monkeypatch, cores):
    # the sweep reads its core count from the process's CPU affinity
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def _sweep_files(out_dir):
    # the CSV bytes, and the report's bytes without its wall-time line
    csv_bytes = (out_dir / "l4-sweep.csv").read_bytes()
    report = (out_dir / "torus-l4-sweep-report.json").read_text(encoding="utf-8")
    return csv_bytes, [line for line in report.splitlines() if "wall_time_s" not in line]


def _serial_rows(tmp_path):
    # the direct serial loop: one l4_batch per nonempty shell, in increasing
    # m, its rows written to serial.csv
    seed = experiments.REGISTRY["torus-l4-sweep"].defaults["seed"]
    rows = []
    for shell in lattice.shells_2d(_SMALL_SWEEP["max_m"]):
        m = shell.radius_squared
        if m and len(shell):
            vals = torus.l4_batch(shell, _SMALL_SWEEP["states_per_shell"], (seed, m))
            rows.append((m, len(shell), float(vals.max())))
    experiments._write_csv(tmp_path / "serial.csv", ("radius_squared", "shell_size", "max_l4"), rows)
    return rows


def test_l4_sweep_is_bitwise_the_serial_loop_for_any_core_count(monkeypatch, tmp_path):
    rows = _serial_rows(tmp_path)
    top = max(r[2] for r in rows)
    seen = []
    for cores in (1, 2, 3):
        _force_cores(monkeypatch, cores)
        out_dir = tmp_path / f"cores-{cores}"
        report = experiments.run_experiment("torus-l4-sweep", _SMALL_SWEEP, out_dir)
        assert report["outputs"]["max_l4"] == top
        assert report["outputs"]["argmax_radius_squared"] == next(r[0] for r in rows if r[2] == top)
        assert report["outputs"]["shells"] == len(rows) and report["pass"]
        seen.append(_sweep_files(out_dir))
    assert seen[0][0] == (tmp_path / "serial.csv").read_bytes()
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("cpu_count", [3, None])
def test_l4_sweep_counts_cores_without_sched_getaffinity(monkeypatch, tmp_path, cpu_count):
    # Windows and macOS have no os.sched_getaffinity: the sweep then starts
    # one helper per further core of os.cpu_count(), and none when that is
    # unknown
    _serial_rows(tmp_path)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    started = []
    thread = threading.Thread

    class Counted(thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    experiments.run_experiment("torus-l4-sweep", _SMALL_SWEEP, tmp_path / "out")
    assert started == ["semiclab-helper"] * ((cpu_count or 1) - 1)
    assert (tmp_path / "out" / "l4-sweep.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


@pytest.mark.parametrize("where", ["main", "helper"])
def test_l4_sweep_raises_a_batch_signal_unchanged(monkeypatch, where):
    # the main thread raises at its first batch; or the helper raises once
    # the main thread holds a batch, which it finishes after the raise; the
    # signal surfaces as raised, the others stop taking shells and no
    # thread outlives the call
    _force_cores(monkeypatch, 2)
    signal = NumericalSignal("empty-shell", f"raised on the {where} thread")
    main_took, helper_raised = threading.Event(), threading.Event()
    calls = []
    l4_batch = torus.l4_batch

    def failing(shell, n_states, seed):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append(on_main)
        if on_main == (where == "main"):
            if not on_main:
                assert main_took.wait(10), "the main thread took no shell"
                helper_raised.set()
            raise signal
        if on_main and not main_took.is_set():
            main_took.set()
            assert helper_raised.wait(10), "the helper did not raise"
        return l4_batch(shell, n_states, seed)

    monkeypatch.setattr(torus, "l4_batch", failing)
    before = set(threading.enumerate())
    with pytest.raises(NumericalSignal) as info:
        experiments.run_experiment("torus-l4-sweep", _SMALL_SWEEP)
    assert info.value is signal
    assert set(threading.enumerate()) == before
    assert True in calls and (where == "main" or False in calls)
    shells = sum(1 for _ in experiments._shells(_SMALL_SWEEP["max_m"]))
    assert len(calls) < shells // 2, (len(calls), shells)


def test_l4_sweep_holds_at_most_one_shell_per_thread(monkeypatch):
    # shells are drawn lazily, one per thread at a time: counted when the
    # generator hands one out and when its batch returns; three threads on
    # this many cores or fewer, switching as often as the interpreter can
    cores = 3
    _force_cores(monkeypatch, cores)
    lock = threading.Lock()
    count = {"taken": 0, "finished": 0, "most": 0}
    shells = experiments._shells
    l4_batch = torus.l4_batch

    def counted_shells(max_m):
        for shell in shells(max_m):
            with lock:
                count["taken"] += 1
                count["most"] = max(count["most"], count["taken"] - count["finished"])
            yield shell

    def counted_batch(shell, n_states, seed):
        vals = l4_batch(shell, n_states, seed)
        with lock:
            count["finished"] += 1
        return vals

    monkeypatch.setattr(experiments, "_shells", counted_shells)
    monkeypatch.setattr(torus, "l4_batch", counted_batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = experiments.run_experiment("torus-l4-sweep", _SMALL_SWEEP)
    finally:
        sys.setswitchinterval(interval)
    assert count["taken"] == count["finished"] == report["outputs"]["shells"]
    assert 1 <= count["most"] <= cores
