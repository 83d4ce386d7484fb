"""semiclab benchmark: the twelve experiments in three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

Run from the root of a checkout; semiclab is imported from ./src. Each pass
runs the workload's experiments through ``experiments.run_experiment`` (the
call ``semiclab run`` makes) in a fresh interpreter, writes reports to a
scratch directory, and compares every report and CSV sidecar with the stored
reference for the seed set. ``--seed N`` selects seed set N mod 2: set 0 is
the registry seeds, set 1 adds one to every registry seed (held out).

With ``--trace 0`` passes repeat while the next one fits in ``--seconds``,
and the end-to-end metrics are printed. With ``--trace 1`` one untraced and
one traced pass run, plus the fixed kernel cases, and the per-layer metrics
are printed. The last line of stdout is the JSON result. ``--record`` writes
the references of a seed set that has none; it never overwrites one.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import roots, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs")
SEED_SETS = 2

# Each experiment belongs to exactly one workload; README.md says why.
WORKLOADS = {
    "torus-shells": ("torus-l4-sweep", "lattice-jarnik", "torus-variance-rate",
                     "torus-egorov", "weyl-table"),
    "catmap-dense": ("catmap-egorov-periods", "partition-decay"),
    "phase-space": ("catmap-scar", "entropy-oracle", "pressure-bowen",
                    "sphere-concentration", "sphere-weinstein"),
}
EXPERIMENTS = [name for names in WORKLOADS.values() for name in names]

SETUP_PROBES = 5
CLI_PROBES = 3
WORKER_TIMEOUT_S = 170

# Median time of worker.SpeedProbe's task on a 2-core box at its usual speed.
# The time metrics are rescaled to this speed: a pass that ran while the
# probe took twice as long is counted at half its measured time.
PROBE_REF_S = 3.0e-3

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("match_ratio", "ratio", "higher"),
    ("checks_passed", "count", "higher"),
]

# Per-layer metrics from the spans of a traced pass. Span names are
# "<module>.<function>"; metric names spell the _kernels module "kernels".
CALLS = ("lattice.enumerate_shell", "torus.l4_batch", "catmap.propagator",
         "catmap.quantum_period", "catmap.classical_period_mod",
         "catmap.apply_propagator", "catmap.mass_in_ball",
         "dynamics.ks_entropy_estimate", "sphere.radon_range",
         "sphere.evaluate_coefficients", "spectra.counting_function")
SELF_S = ("lattice.enumerate_shell", "lattice.count_in_ball", "torus.l4_batch",
          "torus.quantum_variance", "torus.random_shell_basis", "torus.wigner",
          "_kernels.l4_moment_sums", "_kernels.bowen_masses", "_kernels.husimi_grid",
          "catmap.propagator", "catmap.quantum_period", "catmap.classical_period_mod",
          "catmap.partition_product_norm", "catmap.mass_in_ball", "sphere.radon_range",
          "sphere.evaluate_coefficients", "sphere.band_compression",
          "sphere.concentration_experiment", "sphere.quantum_average",
          "spectra.counting_function")
INCLUSIVE_S = ("torus.l4_batch", "catmap.scar_record", "catmap.husimi",
               "dynamics.ks_entropy_estimate")
RATES = {  # metric: span whose work per inclusive second it reports
    "lattice.vectors_per_s": "lattice.enumerate_shell",
    "torus.l4_coeffs_per_s": "torus.l4_batch",
    "catmap.husimi.overlaps_per_s": "catmap.husimi",
    "dynamics.bowen_tests_per_s": "dynamics.ks_entropy_estimate",
}
# The fixed kernel cases: (case span, public caller, dispatcher), three repeats.
CASES = (("case.l4", "torus.l4_batch", "_kernels.l4_moment_sums"),
         ("case.bowen", "dynamics.ks_entropy_estimate", "_kernels.bowen_masses"),
         ("case.husimi", "catmap.husimi", "_kernels.husimi_grid"))


def _metric(span):
    return span.replace("_kernels.", "kernels.", 1)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = [(f"experiments.{name}.wall_s", "s", "lower") for name in EXPERIMENTS]
    spec.append(("experiments.self_s", "s", "lower"))
    spec += [(f"{_metric(s)}.calls", "count", "lower") for s in CALLS]
    spec += [(f"{_metric(s)}.self_s", "s", "lower") for s in SELF_S]
    spec += [(f"{_metric(s)}.s", "s", "lower") for s in INCLUSIVE_S]
    spec += [(name, "1/s", "higher") for name in RATES]
    for _, caller, kernel in CASES:
        spec += [(f"{_metric(caller)}.case_s", "s", "lower"),
                 (f"{_metric(kernel)}.case_s", "s", "lower")]
    spec += [("cli.list_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return spec


# ------------------------------------------------------------ references

REL_TOL, ABS_TOL = 1e-9, 1e-12


def mismatches(ref, got, path="$"):
    """Differences between a reference and an output, as readable paths.

    Booleans, integers and strings must be equal; a float may differ from
    its reference by roundoff (REL_TOL relative plus ABS_TOL absolute).
    """
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if type(ref) is type(got) and ref == got else [f"{path}: {ref!r} != {got!r}"]
    numbers = (int, float)
    if isinstance(ref, numbers) and isinstance(got, numbers) and float in (type(ref), type(got)):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return []
        if abs(ref - got) <= ABS_TOL + REL_TOL * max(abs(ref), abs(got)):
            return []
        return [f"{path}: {ref!r} != {got!r}"]
    if type(ref) is not type(got):
        return [f"{path}: {type(ref).__name__} != {type(got).__name__}"]
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [m for key in ref for m in mismatches(ref[key], got[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(ref, got)) for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {ref!r} != {got!r}"]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_output(exp_dir, name):
    """The report of one experiment without its wall time, and its CSV rows."""
    with open(os.path.join(exp_dir, f"{name}-report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    del report["wall_time_s"]
    files = {}
    for fname in sorted(os.listdir(exp_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(exp_dir, fname), newline="", encoding="utf-8") as fh:
                files[fname] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    report["files"] = files
    return report


def ref_path(seed_set):
    return os.path.join(REFS, f"seed-set-{seed_set}.json")


def load_refs(seed_set):
    with open(ref_path(seed_set), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ workers

def _worker_env():
    # BLAS and OpenMP pools stay within the cores this process may use
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = env.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            env[var] = str(cores)
    return env


class Scratch:
    """Per-run scratch directory in the checkout; removed on exit."""

    def __init__(self):
        self.path = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
        self.count = 0
        self.env = _worker_env()

    def __enter__(self):
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass

    def worker(self, experiments=(), seed_set=0, trace=False):
        """Run worker.py once; returns its result plus ``launch`` and ``out_dir``."""
        self.count += 1
        out_dir = os.path.join(self.path, f"pass-{self.count}")
        spec = {"root": ROOT, "experiments": list(experiments), "seed_offset": seed_set,
                "out_dir": out_dir, "trace": trace,
                "result": os.path.join(self.path, f"result-{self.count}.json")}
        launch = time.monotonic()
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                       env=self.env, cwd=self.path, check=True, timeout=WORKER_TIMEOUT_S)
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["launch"], result["out_dir"] = launch, out_dir
        return result

    def cli_list_s(self):
        env = dict(self.env, PYTHONPATH=os.path.join(ROOT, "src"))
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-m", "semiclab.cli", "list"], env=env, cwd=self.path,
                       check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
        return time.monotonic() - t0


def check_pass(result, refs):
    """(failed experiments, checks passed, mismatch lines) of one pass."""
    failed, passed, lines = 0, 0, []
    for name, error in result["errors"].items():
        if error is None:
            got = read_output(os.path.join(result["out_dir"], name), name)
            diff = mismatches(refs[name], got, name)
            passed += got["pass"]
        else:
            diff = [f"{name}: raised {error}"]
        failed += bool(diff)
        lines += diff[:5]
    return failed, passed, lines


# ------------------------------------------------------------ metrics

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def speed(result):
    """Factor that rescales a worker's times to the reference machine speed."""
    return PROBE_REF_S / result["probe_s"]


def end_to_end(passes, probes, attempted, failed):
    samples = {
        "wall_s": [p["wall_s"] * speed(p) for p in passes],
        "cpu_s": [p["cpu_s"] * speed(p) for p in passes],
        "setup_s": [(p["ready"] - p["launch"]) * speed(p) for p in probes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "match_ratio": [(attempted - failed) / attempted],
        "checks_passed": [p["checks_passed"] for p in passes],
    }
    return {name: samples[name] for name, _, _ in END_TO_END}


def layer_metrics(names, spans, workload, untraced_wall, traced_wall, cli_list):
    """Per-layer metrics of one traced pass, keyed as in per_layer_spec()."""
    # spans under a fixed-case root are kept apart from the workload's spans
    root = roots(spans)
    in_case = [names[spans[r][0]].startswith("case.") for r in root]
    agg = summarize(names, spans, keep=[not c for c in in_case])
    get = lambda span: agg.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})

    out = {}
    runs = [s for s in spans if s[3] < 0 and names[s[0]] == "experiments.run_experiment"]
    walls = dict(zip(WORKLOADS[workload], (s[2] - s[1] for s in runs)))
    for name in EXPERIMENTS:
        out[f"experiments.{name}.wall_s"] = walls.get(name, 0.0)
    out["experiments.self_s"] = sum(rec["self_s"] for span, rec in agg.items()
                                    if span.startswith("experiments."))
    for span in CALLS:
        out[f"{_metric(span)}.calls"] = get(span)["calls"]
    for span in SELF_S:
        out[f"{_metric(span)}.self_s"] = get(span)["self_s"]
    for span in INCLUSIVE_S:
        out[f"{_metric(span)}.s"] = get(span)["s"]
    for metric, span in RATES.items():
        rec = get(span)
        out[metric] = rec["work"] / rec["s"] if rec["s"] > 0 else 0.0
    for case, caller, kernel in CASES:
        for target in (caller, kernel):
            per_repeat = {i: 0.0 for i, s in enumerate(spans)
                          if s[3] < 0 and names[s[0]] == case}
            for s, r in zip(spans, root):
                if r in per_repeat and names[s[0]] == target:
                    per_repeat[r] += s[2] - s[1]
            out[f"{_metric(target)}.case_s"] = statistics.median(per_repeat.values())
    out["cli.list_s"] = cli_list
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# ------------------------------------------------------------ main

def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "semiclab", "__init__.py")):
        return _fail(f"no semiclab source under {os.path.join(ROOT, 'src')}")
    seed_set = seed % SEED_SETS
    if not os.path.isfile(ref_path(seed_set)):
        return _fail(f"no reference outputs for seed set {seed_set}")
    refs = load_refs(seed_set)
    experiments = WORKLOADS[workload]
    attempted = failed = 0
    problems = []
    passes = []

    def one_pass(trace_pass=False):
        nonlocal attempted, failed
        result = scratch.worker(experiments, seed_set, trace_pass)
        n_failed, result["checks_passed"], lines = check_pass(result, refs)
        attempted += len(experiments)
        failed += n_failed
        problems.extend(lines)
        return result

    with Scratch() as scratch:
        probes = [scratch.worker() for _ in range(1 if trace else SETUP_PROBES)]
        env = probes[0]["env"]
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {workload}: {', '.join(experiments)}; seed {seed} -> seed set {seed_set}")
        if trace:
            untraced = one_pass()
            traced = one_pass(trace_pass=True)
            cli_list = statistics.median(scratch.cli_list_s() for _ in range(CLI_PROBES))
            values = layer_metrics(traced["names"], traced["spans"], workload,
                                   untraced["wall_s"], traced["wall_s"], cli_list)
            spec = per_layer_spec()
        else:
            start = time.monotonic()
            while True:
                passes.append(one_pass())
                used = time.monotonic() - start
                if used + used / len(passes) > seconds:
                    break
            samples = end_to_end(passes, probes, attempted, failed)
            values = {}
            for name, unit, _ in END_TO_END:
                vals = samples[name]
                q1, q3 = _quartiles(vals)
                values[name] = statistics.median(vals)
                print(f"  {name:14s} {values[name]:12.6g} {unit:6s} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(vals)})")
            for p in passes:
                print(f"  pass: measured wall {p['wall_s']:.4f} s, cpu {p['cpu_s']:.4f} s; "
                      f"probe {p['probe_s'] * 1e3:.4f} ms, speed factor {speed(p):.4f}")
            for name in experiments:
                vals = [p["experiment_wall_s"][name] for p in passes]
                print(f"  experiment {name:22s} {statistics.median(vals):9.4f} s measured")
            spec = END_TO_END
    for line in problems:
        print(f"  MISMATCH {line}")
    if trace:
        for name, unit, _ in spec:
            print(f"  {name:46s} {values[name]:14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record():
    """Write the reference outputs of every seed set that has none."""
    os.makedirs(REFS, exist_ok=True)
    with Scratch() as scratch:
        for seed_set in range(SEED_SETS):
            path = ref_path(seed_set)
            if os.path.exists(path):
                print(f"kept {path}")
                continue
            result = scratch.worker(EXPERIMENTS, seed_set)
            bad = {k: v for k, v in result["errors"].items() if v is not None}
            if bad:
                return _fail(f"experiments raised: {bad}")
            refs = {name: read_output(os.path.join(result["out_dir"], name), name)
                    for name in EXPERIMENTS}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
            print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write missing reference outputs and exit")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
