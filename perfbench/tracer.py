"""Per-layer tracing from outside the library.

``Tracer.install(cfsdim)`` replaces every binding of every public function
of the eight ``cfsdim`` modules, in every module namespace and in the
package itself (so ``separation.project`` is wrapped as well as
``words.project``), with a wrapper that records a span: name, layer, start,
end and the span that was open when it started.  Spans stay in memory
until ``dump``.  A layer's self time is the time of its spans minus their
direct child spans, so time spent in a nested call into another layer is
counted there.  Generator functions get one span per resumption.

Only the standard library is imported here, so the CLI launcher can time
the import of ``cfsdim`` itself.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time

LAYERS = ("ifs", "words", "entropy", "dimension", "separation", "fourcorner",
          "estimate", "cli")


def _max_mass(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs["p"]
    return round(max(float(sum(row)) for row in p.weights), 4)


def _dp_cells(args, kwargs):
    """Cells the signature DP visits, computed from n, the group count and
    the group sizes: the block-sum tables plus the (length, group, group,
    block length) loop."""
    system, n = args[0], args[2] if len(args) > 2 else kwargs["n"]
    N = system.n_groups
    block = sum(system.group_sizes) * sum(
        (l + 1) * (l + 2) // 2 for l in range(n + 1))
    return block + (N + 1) * N * n * (n + 1) // 2


# name -> function(args, kwargs) giving the span's sweep key
KEYS = {
    "entropy.phi_series": _max_mass,
    "entropy.rw_entropy_bruteforce": lambda a, k: a[2] if len(a) > 2 else k["n"],
    "separation.esc_probe": lambda a, k: "%s-%s-n%d" % (
        a[0].mode, ".".join(map(str, a[0].group_sizes)), a[1] if len(a) > 1 else k["n_max"]),
    "estimate.cover_boxes_1d": lambda a, k: a[1] if len(a) > 1 else k["m"],
}


def _count_result(counters, name, key, res):
    if name == "entropy.phi_series":
        counters["entropy.phi_terms"] += res.terms_used
        counters[f"phi_terms@{key}"] += res.terms_used
    elif name == "separation.esc_probe":
        counters["separation.classes"] += sum(r.class_count for r in res.rows)
        counters[f"esc_classes@{key}"] += res.rows[-1].class_count


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, key]
        self.counters = collections.Counter()
        self._stack = []
        self._saved = []

    def add_span(self, name, layer, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, start, end, parent, None])

    def _enter(self, name, layer, key):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, key])
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        keyf = KEYS.get(name)
        counters = self.counters

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counters[f"{layer}.calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter(name, layer, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    counters[f"{name}.items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[f"{layer}.calls"] += 1
            key = keyf(args, kwargs) if keyf else None
            if name == "entropy.rw_entropy_bruteforce":
                counters["entropy.dp_cells"] += _dp_cells(args, kwargs)
            self._enter(name, layer, key)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._exit()
            _count_result(counters, name, key, res)
            return res
        return wrapper

    def install(self, package):
        modules = [importlib.import_module(f"{package.__name__}.{l}") for l in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, layer)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def aggregate(spans, counters, units):
    """Per-layer metrics from spans and counters, divided by ``units`` (the
    number of traced passes, so figures are per pass)."""
    n = len(spans)
    child = [0.0] * n
    for name, layer, t0, t1, parent, key in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = collections.Counter()
    fn_s = collections.Counter()
    by_key = collections.defaultdict(list)
    for i, (name, layer, t0, t1, parent, key) in enumerate(spans):
        self_s[layer] += (t1 - t0) - child[i]
        # inclusive time of top-level calls of each function
        if parent < 0 or spans[parent][0] != name:
            fn_s[name] += t1 - t0
            if key is not None:
                by_key[(name, key)].append(t1 - t0)
    total_self = sum(self_s.values()) or 1.0
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = counters.get(f"{layer}.calls", 0) / units
        m[f"{layer}.self_s"] = self_s[layer] / units
        m[f"{layer}.self_share"] = self_s[layer] / total_self
    m["cli.import_s"] = fn_s["cli.import"] / units

    def mean(name, key):
        xs = by_key.get((name, key), [])
        return sum(xs) / len(xs) if xs else 0.0

    for fn, metric in (("entropy.phi_series", "entropy.phi_series_s"),
                       ("fourcorner.phi_xy", "fourcorner.phi_xy_s"),
                       ("dimension.gd_dimension", "dimension.gd_dimension_s"),
                       ("dimension.attractor_dimension", "dimension.attractor_dimension_s"),
                       ("separation.esc_probe", "separation.esc_probe_s"),
                       ("entropy.rw_entropy_bruteforce", "entropy.rw_bruteforce_s"),
                       ("estimate.cover_boxes_1d", "estimate.cover_boxes_1d_s"),
                       ("estimate.entropy_slope", "estimate.entropy_slope_s"),
                       ("fourcorner.chaos_game_points", "fourcorner.chaos_game_points_s"),
                       ("entropy.phi_monte_carlo", "entropy.phi_monte_carlo_s")):
        m[metric] = fn_s[fn] / units
    for c in ("entropy.phi_terms", "separation.classes", "entropy.dp_cells"):
        m[c] = counters.get(c, 0) / units
    m["dimension.gd_matrix_calls"] = _calls(spans, "dimension.gd_matrix") / units
    m["dimension.spectral_radius_calls"] = _calls(spans, "dimension.spectral_radius") / units
    m["words.project_calls"] = _calls(spans, "words.project") / units
    m["words.signatures"] = counters.get("words.enumerate_signatures.items", 0) / units
    classes = counters.get("separation.classes", 0)
    m["separation.us_per_class"] = (1e6 * fn_s["separation.esc_probe"] / classes
                                    if classes else 0.0)
    for rho in ("0.5", "0.9", "0.95", "0.99"):
        calls = len(by_key.get(("entropy.phi_series", float(rho)), []))
        m[f"sweep.phi_series_s.rho{rho}"] = mean("entropy.phi_series", float(rho))
        m[f"sweep.phi_terms.rho{rho}"] = (counters.get(f"phi_terms@{float(rho)}", 0) / calls
                                          if calls else 0.0)
    for n in (60, 170):
        m[f"sweep.rw_bruteforce_s.n{n}"] = mean("entropy.rw_entropy_bruteforce", n)
    for n in (8, 9):
        key = f"rational-2.1-n{n}"
        calls = len(by_key.get(("separation.esc_probe", key), []))
        m[f"sweep.esc_probe_s.n{n}"] = mean("separation.esc_probe", key)
        m[f"sweep.esc_classes.n{n}"] = (counters.get(f"esc_classes@{key}", 0) / calls
                                        if calls else 0.0)
    m["sweep.cover_boxes_1d_s.m16"] = mean("estimate.cover_boxes_1d", 16)
    return m


def _calls(spans, name):
    return sum(1 for s in spans if s[0] == name)
