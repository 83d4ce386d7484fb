"""One benchmark pass in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py SPEC

SPEC is a JSON object with the keys
  root         checkout root; semiclab is imported from <root>/src
  experiments  registry names to run in order; none makes a set-up probe
  seed_offset  added to every experiment's registry seed (0 keeps them)
  out_dir      reports and CSV sidecars go to <out_dir>/<experiment>/
  trace        record spans around every layer's public functions, then
               run the fixed kernel cases under spans of their own
  result       path of the JSON result this process writes

The result holds the monotonic clock reading once semiclab is imported
(``ready``), the wall and CPU seconds of the experiment loop without the
speed probe's share, the probe's median task time (``probe_s``), peak
RSS, each experiment's wall seconds and the error it raised (or null), the
environment fingerprint, and the spans of a traced pass.
"""

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time


# Samples the probe takes after the pass when the pass gave fewer: a set-up
# probe runs no experiment, and a traced pass runs without the timer.
PROBE_MIN_SAMPLES = 15


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class SpeedProbe:
    """A fixed reference task, timed from a timer signal while a pass runs.

    The shared machine's speed drifts by tens of percent within a minute,
    and the experiments drift with it. The task mixes the three kinds of work
    the experiments do: interpreted Python, a memory-bound numpy gather and a
    small BLAS product. Its median time during a pass says how fast the
    machine ran; run.py rescales the pass's times by it. The task's own time
    is kept out of the pass's wall and CPU time.
    """

    INTERVAL_S = 0.2

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.v = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
        self.idx = rng.permutation(1 << 16)
        # small enough that OpenBLAS keeps it on one thread; a larger product
        # would wake its pool, whose threads spin on the other core
        self.m = rng.standard_normal((64, 64))
        self.samples, self.cpu_s = [], 0.0
        self.task()  # first touch of the arrays is not a sample
        self.samples, self.cpu_s = [], 0.0

    def task(self, *_):
        c0, t0 = _cpu_s(), time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        (self.v[self.idx] * self.v.conj()).sum()
        for _ in range(20):
            self.m @ self.m
        self.samples.append(time.perf_counter() - t0)
        self.cpu_s += _cpu_s() - c0

    def median_s(self):
        return statistics.median(self.samples)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.task)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def fingerprint(root):
    """Library versions, kernel backend, BLAS and cores of this process."""
    import platform

    import numpy as np
    import scipy

    from semiclab import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_active": bool(_kernels.USE_NUMBA),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
    }


def _blas_threads():
    # ask the OpenBLAS that numpy loaded; other BLAS builds report the
    # thread variable the harness set
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def git_sha(root):
    """Commit of the checkout from .git, or None in an exported tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def run_cases(tracer, repeats=3):
    """The fixed kernel cases, timed through their public callers.

    L4 sums on the shell m=325 for 2000 states, Bowen masses for 20000
    points and 256 bases at T=12, and a 64x64 Husimi grid at N=1008.
    """
    from semiclab import catmap, dynamics, lattice, torus

    with tracer.span("case.setup"):
        A = catmap.CatMap(2, 1, 1, 1)
        shell = lattice.enumerate_shell(325, 2)
        mu = dynamics.uniform_measure(20000, 5)
        state = catmap.scarred_state(A, 1008)
    for _ in range(repeats):
        with tracer.span("case.l4"):
            torus.l4_batch(shell, 2000, 9)
        with tracer.span("case.bowen"):
            dynamics.ks_entropy_estimate(mu, A, 0.05, 12, n_bases=256)
        with tracer.span("case.husimi"):
            catmap.husimi(state, 64)


def main(spec):
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from semiclab import experiments

    if not os.path.abspath(experiments.__file__).startswith(src + os.sep):
        raise SystemExit(f"semiclab imported from {experiments.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    probe = SpeedProbe()
    errors, walls = {}, {}
    cpu0, t0 = _cpu_s(), time.perf_counter()
    # a traced pass runs without the probe, which would land inside its spans
    with contextlib.nullcontext() if tracer else probe:
        for name in spec["experiments"]:
            overrides = {}
            if spec["seed_offset"]:
                seed = experiments.REGISTRY[name].defaults["seed"]
                overrides["seed"] = seed + spec["seed_offset"]
            t1 = time.perf_counter()
            try:
                experiments.run_experiment(name, overrides, os.path.join(spec["out_dir"], name))
                errors[name] = None
            except Exception as exc:  # a failed experiment is counted, not fatal
                errors[name] = f"{type(exc).__name__}: {exc}"
            walls[name] = time.perf_counter() - t1
    wall = time.perf_counter() - t0 - sum(probe.samples)
    cpu = _cpu_s() - cpu0 - probe.cpu_s
    if tracer is not None:
        run_cases(tracer)
        tracer.uninstall()
    while len(probe.samples) < PROBE_MIN_SAMPLES:
        probe.task()
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": probe.median_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
        "experiment_wall_s": walls,
        "env": fingerprint(spec["root"]) if not spec["experiments"] else None,
        "names": tracer.names if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
