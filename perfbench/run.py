"""The cfsdim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``cfsdim`` is imported from ./src.  One client
sends one query at a time and waits for its answer (a closed loop, no extra
threads).  The query stream comes from the workload's stored pool and the
seed (see ``workloads.Plan``); every answer is checked against its stored
reference (see ``check``).  A run is a whole number of passes over the
workload's slots: about ``--seconds`` of query time and at least 100
queries.  Reported times are scaled to a reference machine speed (see CAL_REF_S);
``ok_queries_per_s`` divides the queries answered right by the summed
scaled query time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics.  Both print one line
per metric and end with one JSON line whose ``correct`` is false when a
query outside the slots tagged as known seed defects is wrong or fails;
the tagged ones count in ``wrong_frac`` and ``error_frac`` instead.  A full
record (host, versions, every answer and counter, the spans) goes to
``.perfbench/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

QUERY_LIMIT_S = 60        # a query running longer counts as an error
DOCUMENTED_EXITS = (1, 2, 3)   # cfsdim's IO, validation and budget exit codes
MIN_QUERIES = 100         # so that ten samples lie beyond p90
MAX_RUN_S = 150           # keeps a slow build inside the 180 s run limit
SETUP_REPEATS = 7


# Speed of this shared 2-core host swings by up to 2x, in phases from tens
# of milliseconds to tens of seconds (other tenants), which moves whole runs.
# So each query is timed between two runs of a fixed pure-Python
# calibration loop and scaled by CAL_REF_S / (the loop's mean time there):
# reported times read as if the loop took CAL_REF_S, its time on an
# uncontended core of the 2.1 GHz Xeon VM the benchmark was built on.  The
# loop mixes float arithmetic, math.log, list and dict access because its
# slow-down then tracks the library's (a bare arithmetic loop slowed 1.45x
# where the Phi series slowed 1.86x).  In-process queries are also sampled
# while they run (SpeedSampler).  Raw times are printed and recorded.
CAL_ITERATIONS = 1_500
CAL_REF_S = 6.1e-4


def speed_factor():
    """CAL_REF_S over one timing of the calibration loop."""
    t0 = time.perf_counter()
    acc, table, counts = 0.0, [0.0] * 64, {}
    for i in range(CAL_ITERATIONS):
        w = (i % 97 + 1) * 0.01
        acc += w * math.log((i % 13 + 1.0) / (i % 7 + 2.0))
        table[i & 63] = acc
        counts[i & 31] = counts.get(i & 31, 0.0) + w
    return CAL_REF_S / (time.perf_counter() - t0)


class SpeedSampler:
    """Speed factors sampled every SAMPLE_S of CPU time while a long query
    runs (from a SIGVTALRM handler in this thread), and the time the
    sampling itself took, which is taken off the query's latency."""

    SAMPLE_S = 0.05

    def __init__(self):
        self.factors, self.spent = [], 0.0
        signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.factors.append(speed_factor())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.factors, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, self.SAMPLE_S, self.SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout(f"query exceeded {QUERY_LIMIT_S} s")


# --- running queries ------------------------------------------------------------

class Execution:
    __slots__ = ("slot", "variant", "latency", "speed", "error", "answer",
                 "verdict", "counters")

    def __init__(self, slot, variant, latency, speed, error, answer):
        self.slot, self.variant = slot, variant
        self.latency, self.speed = latency, speed
        self.error, self.answer = error, answer
        self.verdict = None
        self.counters = None      # the query's work counters, traced runs only

    @property
    def scaled(self):
        """Latency scaled to the reference speed (see CAL_REF_S)."""
        return self.latency * self.speed


def run_inprocess_pass(modules, pool, built, plan_pass, sampler, counters=None):
    """One pass in this process; ``counters`` is the tracer's, whose growth
    over each query is recorded as that query's work."""
    out = []
    for s, v in plan_pass:
        query = pool[s]["variants"][v]
        mod, name = workloads.CALLS[query["kind"]]
        fn = getattr(modules[mod], name)     # looked up per call: the tracer rebinds it
        args = built[(s, v)]
        res, error = None, None
        before = counters.copy() if counters is not None else None
        factor = speed_factor()
        sampler.start()
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        t0 = time.perf_counter()
        try:
            res = fn(*args)
        except Exception as exc:  # a library failure is a measured outcome
            error = repr(exc)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            sampler.stop()
        answer = None if error else workloads.summarise(query["kind"], res)
        factors = [factor] + sampler.factors + [speed_factor()]
        ex = Execution(s, v, t1 - t0 - sampler.spent, sum(factors) / len(factors),
                       error, answer)
        if before is not None:
            ex.counters = dict(counters - before)
        out.append(ex)
    return out


def run_cli_pass(root, run_dir, pool, plan_pass, spans_dir=None):
    """Each command as its own subprocess; with ``spans_dir`` through the
    tracing launcher.  Output files are read and removed after each command,
    and each answer is checked at once (untimed) because the next round
    rewrites the files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    out = []
    for i, (s, v) in enumerate(plan_pass):
        query = pool[s]["variants"][v]
        argv = [a.replace("{run}", run_dir) for a in query["argv"]]
        if spans_dir:
            cmd = [sys.executable, os.path.join(HERE, "launch.py"),
                   os.path.join(spans_dir, f"{i}.json"), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "cfsdim.cli"] + argv
        factor = speed_factor()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=QUERY_LIMIT_S)
            t1 = time.perf_counter()
            error = verdict = None
            if proc.returncode != 0 or "Traceback" in proc.stderr:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                error = f"exit {proc.returncode}: {tail[0][:200]}"
                if (proc.returncode in DOCUMENTED_EXITS
                        and "Traceback" not in proc.stderr):
                    # a documented refusal is no answer, hence wrong, not an error
                    error, verdict = None, f"no answer ({error})"
        except subprocess.TimeoutExpired:
            t1 = time.perf_counter()
            proc, error, verdict = None, f"timeout after {QUERY_LIMIT_S} s", None
        factor = (factor + speed_factor()) / 2
        files = {}
        for name, mode in (("probe.csv", "r"), ("attractor.ppm", "rb")):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                with open(path, mode) as fh:
                    files[name] = fh.read()
                os.remove(path)
        ex = Execution(s, v, t1 - t0, factor, error, None)
        ex.verdict = verdict
        if error is None and verdict is None:
            ans = {"stdout": proc.stdout, "files": files}
            ex.verdict = check.check(query, ans) or "ok"
            ex.answer = _cli_record(proc.stdout)
        out.append(ex)
    return out


def _cli_record(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return {"stdout": stdout[:2000]}


def verify(pool, executions):
    """Set each execution's verdict: 'ok', the checker's reason, or 'error'.
    Identical answers to the same query are checked once."""
    seen = {}
    for ex in executions:
        if ex.error is not None:
            ex.verdict = "error"
        elif ex.verdict is None:
            key = (ex.slot, ex.variant, json.dumps(ex.answer, sort_keys=True))
            if key not in seen:
                query = pool[ex.slot]["variants"][ex.variant]
                seen[key] = check.check(query, ex.answer) or "ok"
            ex.verdict = seen[key]


# --- set-up ---------------------------------------------------------------------

def measure_setup(root, workload):
    """Median wall time of a fresh interpreter importing cfsdim and loading
    and validating the workload's descriptors."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = speed_factor()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload], cwd=root, env=env, capture_output=True,
                              text=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * (before + speed_factor()) / 2)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
    return statistics.median(scaled), statistics.median(raw)


# --- the two protocols ----------------------------------------------------------

def warm_up(run_pass, pool):
    """One query of each kind, untimed, so first-call costs (lazy imports,
    numpy set-up, the page cache for the CLI) stay out of the figures."""
    first = {}
    for s, slot in enumerate(pool):
        first.setdefault(slot["variants"][0]["kind"], s)
    run_pass([(s, 0) for s in first.values()])


def timed_run(run_pass, plan, seconds):
    """Whole passes until ``seconds`` of query time are spent: a further
    pass starts only if it would end less than half a pass past the mark,
    and at least MIN_QUERIES queries run.  Unscaled time decides, so a slow
    host does not lengthen the run."""
    execs, busy, n = [], 0.0, 0
    min_passes = math.ceil(MIN_QUERIES / len(plan.order))
    while True:
        batch = run_pass(plan.variants(n))
        execs += batch
        busy += sum(e.latency for e in batch)
        n += 1
        if n >= min_passes and (busy + busy / n / 2 >= seconds
                                or busy + busy / n >= MAX_RUN_S):
            return execs, n


def traced_run(run_pass, run_traced, plan, seconds):
    """Pairs of a plain and a traced pass over the same queries, at least
    two and until ``seconds`` have passed, alternating which runs first so
    drift in machine speed does not land on one side; returns executions,
    pairs and the query time of each side."""
    execs, plain, traced, pairs = [], 0.0, 0.0, 0
    t_start = time.perf_counter()
    while pairs < 2 or time.perf_counter() - t_start < seconds:
        variants = plan.variants(pairs)
        if pairs % 2:
            b = run_traced(variants)
            a = run_pass(variants)
        else:
            a = run_pass(variants)
            b = run_traced(variants)
        plain += sum(e.scaled for e in a)
        traced += sum(e.scaled for e in b)
        execs += a + b
        pairs += 1
    return execs, pairs, plain, traced


# --- metrics and output -------------------------------------------------------------

END_TO_END_UNITS = {"ok_queries_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s", "error_frac": "frac",
                    "wrong_frac": "frac", "peak_rss_mb": "MB"}


def latency_figures(execs, attr):
    """(ok queries per second, p50 ms, p90 ms) from one latency attribute."""
    lat_ms = sorted(1e3 * getattr(e, attr) for e in execs)
    p50, p90 = (statistics.quantiles(lat_ms, n=10, method="inclusive")[i] for i in (4, 8))
    ok = sum(1 for e in execs if e.verdict == "ok")
    return ok / (sum(lat_ms) / 1e3), p50, p90


def end_to_end(pool, execs, passes, setup_s, rss_mb):
    q = len(pool)
    ok_per_s, p50, p90 = latency_figures(execs, "scaled")
    ok = sum(1 for e in execs if e.verdict == "ok")
    errors = sum(1 for e in execs if e.verdict == "error")
    wrong = len(execs) - ok - errors
    return {
        "ok_queries_per_s": ok_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": setup_s,
        # per-pass shares of the q slots, add-one smoothed: 1/(q+1) means
        # no error, and the metric is never 0
        "error_frac": (errors / passes + 1) / (q + 1),
        "wrong_frac": (wrong / passes + 1) / (q + 1),
        "peak_rss_mb": rss_mb,
    }


def per_layer_units(name):
    if name.endswith("_share") or name.endswith("_frac"):
        return "frac"
    if name.endswith("us_per_class"):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")) or shutil.which("git") is None:
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def write_record(root, run_dir, args, metrics, execs, pool, extra):
    import numpy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "metrics": metrics, **extra,
        "executions": [{"slot": e.slot, "variant": e.variant,
                        "kind": pool[e.slot]["variants"][e.variant]["kind"],
                        "latency_s": e.latency, "speed": e.speed,
                        "verdict": e.verdict,
                        "error": e.error, "answer": e.answer,
                        "counters": e.counters} for e in execs],
    }
    path = os.path.join(run_dir, "result.json")
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True, default=str)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cfsdim", "__init__.py")):
        print("perfbench: no ./src/cfsdim here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "cli" and not os.path.isdir(os.path.join(root, "configs")):
        print("perfbench: no ./configs here; run from the repository root",
              file=sys.stderr)
        return 2
    pool = workloads.load_pool(args.workload)
    run_dir = os.path.join(root, ".perfbench",
                           f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(run_dir, exist_ok=True)

    # one CPU for the benchmark and every process it starts, so a command
    # runs where its calibration ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s, setup_raw = measure_setup(root, args.workload)
    sys.path.insert(0, src)
    import cfsdim
    plan = workloads.Plan(pool, args.seed)
    extra = {"setup_raw_s": setup_raw, "slot_order": plan.order}
    spans, counters = [], collections.Counter()   # filled by traced passes

    def merge(new_spans, new_counters):
        base = len(spans)
        spans.extend([n, l, t0, t1, p + base if p >= 0 else -1, k]
                     for n, l, t0, t1, p, k in new_spans)
        counters.update(new_counters)

    if args.workload == "cli":
        def run_pass(variants):
            return run_cli_pass(root, run_dir, pool, variants)

        def run_traced(variants):
            spans_dir = os.path.join(run_dir, "spans")
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            out = run_cli_pass(root, run_dir, pool, variants, spans_dir)
            for i, ex in enumerate(out):
                path = os.path.join(spans_dir, f"{i}.json")
                if not os.path.exists(path):
                    continue        # the launcher was killed at the time limit
                with open(path) as fh:
                    d = json.load(fh)
                ex.counters = d["counters"]
                merge(d["spans"], d["counters"])
            return out
    else:
        modules = {m: importlib.import_module(f"cfsdim.{m}") for m in tracer.LAYERS}
        built = workloads.build_all(cfsdim, pool)
        signal.signal(signal.SIGALRM, _alarm)
        sampler = SpeedSampler()

        def run_pass(variants):
            return run_inprocess_pass(modules, pool, built, variants, sampler)

        def run_traced(variants):
            t = tracer.Tracer()
            t.install(cfsdim)
            try:
                return run_inprocess_pass(modules, pool, built, variants, sampler, t.counters)
            finally:
                t.uninstall()
                merge(t.spans, t.counters)

    warm_up(run_pass, pool)
    if args.trace:
        execs, pairs, plain, traced = traced_run(run_pass, run_traced, plan, args.seconds)
        verify(pool, execs)
        metrics = tracer.aggregate(spans, counters, pairs)
        metrics["trace.overhead_frac"] = traced / plain - 1.0
        units = {k: per_layer_units(k) for k in metrics}
        extra["counters"] = dict(counters)
        extra["passes"] = 2 * pairs
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    else:
        execs, passes = timed_run(run_pass, plan, args.seconds)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                 else resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify(pool, execs)
        metrics = end_to_end(pool, execs, passes, setup_s, rss)
        units = END_TO_END_UNITS
        extra["passes"] = passes
        raw = latency_figures(execs, "latency")
        extra["raw"] = dict(zip(("ok_queries_per_s", "latency_p50_ms", "latency_p90_ms"),
                                raw), setup_s=setup_raw)

    errors = sum(1 for e in execs if e.verdict == "error")
    bad = [e for e in execs if e.verdict != "ok"]
    unexpected = [e for e in bad if not pool[e.slot]["known_defect"]]
    record = write_record(root, run_dir, args, metrics, execs, pool, extra)

    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{'latency_samples':<34} {len(execs)} queries in {extra['passes']} passes "
              f"of {len(pool)}")
        for name, value in extra["raw"].items():
            print(f"{'unscaled ' + name:<34} {value:.6g} {units[name]}")
    print(f"{'wrong_queries':<34} {len(bad) - errors}")
    print(f"{'error_queries':<34} {errors}")
    for e in unexpected[:5]:
        q = pool[e.slot]["variants"][e.variant]
        print(f"UNEXPECTED slot {e.slot} ({q['kind']}): {e.error or e.verdict}")
    print(f"record: {os.path.relpath(record, root)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(execs),
        "failed": errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
