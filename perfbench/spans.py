"""Spans around the public functions of semiclab's layers, installed from outside.

A Tracer replaces every public function of the layer modules with a wrapper
that records one span per call: (function, start, end, parent span, work).
Module globals that hold the function under another name (``from semiclab.lattice
import count_in_ball``) are patched too, so calls between layers are seen.
``uninstall`` puts every original back. Spans stay in memory; the caller
writes them out when the run ends.
"""

import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("lattice", "torus", "sphere", "catmap", "dynamics", "spectra",
          "_kernels", "experiments", "cli")

# Work done per call, for the throughput metrics: f(bound arguments, result).
WORK = {
    "lattice.enumerate_shell": lambda a, r: len(r),
    "torus.l4_batch": lambda a, r: a["n_states"] * len(a["shell"]),
    "catmap.husimi": lambda a, r: a["grid"] ** 2 * len(a["s"].amplitudes),
    "dynamics.ks_entropy_estimate":
        lambda a, r: a["n_bases"] * len(a["mu"].points) * (a["T"] + 1),
}


def public_functions(module):
    """Functions a layer defines under a public name.

    The numpy and numba twins of a kernel (``*_np``, ``*_nb``) are the body of
    their public dispatcher, so their time counts as the dispatcher's self time.
    """
    for name, obj in vars(module).items():
        if (isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not name.endswith(("_np", "_nb"))):
            yield name, obj


class Tracer:
    """Records spans for calls into the layer modules while installed."""

    def __init__(self):
        self.names = []     # span name table; a span stores its index here
        self.spans = []     # [name index, start, end, parent span or -1, work]
        self._stack = []
        self._patched = []  # (namespace dict, key, original)

    def install(self):
        modules = [importlib.import_module(f"semiclab.{layer}") for layer in LAYERS]
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "semiclab" or name.startswith("semiclab.")]
        for layer, module in zip(LAYERS, modules):
            for name, fn in list(public_functions(module)):
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self):
        for ns, key, fn in reversed(self._patched):
            ns[key] = fn
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def span(self, name):
        """Context manager recording one span under ``name``."""
        return _Span(self, self._name_index(name), None, None)

    def _name_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, name, fn):
        idx = self._name_index(name)
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(tracer, idx, work, sig, args, kwargs) as sp:
                sp.result = fn(*args, **kwargs)
                return sp.result

        return wrapper


class _Span:
    __slots__ = ("tracer", "idx", "work", "sig", "args", "kwargs", "row", "result")

    def __init__(self, tracer, idx, work, sig, args=(), kwargs=None):
        self.tracer, self.idx, self.work, self.sig = tracer, idx, work, sig
        self.args, self.kwargs, self.result = args, kwargs, None

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.row = [self.idx, 0.0, 0.0, parent, 0]
        t._stack.append(len(t.spans))
        t.spans.append(self.row)
        self.row[1] = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        self.row[2] = time.perf_counter()
        self.tracer._stack.pop()
        if self.work is not None and exc_type is None:
            bound = self.sig.bind(*self.args, **self.kwargs)
            bound.apply_defaults()
            self.row[4] = self.work(bound.arguments, self.result)
        return False


def roots(spans):
    """Index of the outermost ancestor of every span."""
    out = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def summarize(names, spans, keep=None):
    """Per span name: calls, inclusive seconds, self seconds and work.

    Self time is a span's duration minus the durations of its direct
    children. With ``keep``, only spans i with keep[i] true are counted.
    """
    child = [0.0] * len(spans)
    for idx, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0} for name in names}
    for i, (idx, start, end, parent, work) in enumerate(spans):
        if keep is not None and not keep[i]:
            continue
        rec = out[names[idx]]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[i]
        rec["work"] += work
    return out
