"""Seeded end-to-end benchmark of subnormforge, with a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 35 --trace 0

The package is used as a library: the benchmark generates a corpus of
functions as text from ``--seed`` (``corpus.py``), parses it with
``parse_fn``, and calls only ``parse_tnorm``, ``classify`` and
``consistency_harness`` (plus ``make_op``/``f_eval`` to check outputs).
One process, one closed-loop caller, no threads.  A *unit* is one
(function, t-norm) pair: one ``classify`` call on ``classify-mix`` and one
``consistency_harness`` call on ``harness-exact``.  A run's units are a
seeded shuffle of the workload's pairs, cut to a count fixed by
``--seconds`` (``Workload.rate``), so both sides of a comparison do the
same work.

Times are reported at a reference speed.  The host is shared, and its
speed drifts by up to half for seconds at a time, which no run length
averages out.  So every 20 ms the loop times a fixed stdlib ``Fraction``
kernel (``Speed``), and each measured time is scaled by
``CAL_REF_S / (kernel time around it)``: a time in ms is what the unit
would take on a host where the kernel takes ``CAL_REF_S``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs units with
span recorders wrapped around every layer (``spans.py``), then the same
units untraced, and prints the per-layer metrics per traced unit.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# extra fresh processes that repeat the set-up, so setup_s is a median
SETUP_REPEATS = 6
# the traced pass stops adding units once this many spans are held, or
# once this share of --seconds has passed
MAX_SPANS = 2_000_000
TRACED_SHARE = 0.6
# latency_tail_ms is the highest of these percentiles that leaves at
# least TAIL_BEYOND of the run's units beyond it
TAIL_PERCENTILES = (99.9, 99, 90, 50)
TAIL_BEYOND = 10
# calibration kernel: its time on the reference host, and how often and
# over what window it is sampled
CAL_REF_S = 0.0008
CAL_EVERY_S = 0.02
CAL_WINDOW_S = 0.25


@dataclass(frozen=True)
class Workload:
    kind: str  # "classify" or "harness"
    families: tuple
    n_fns: int  # random functions generated, before the worked examples
    rate: float  # units per second of --seconds; fixes the run's work


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "classify-mix": Workload(
        "classify", ("product", "hamacher2", "min", "halfprod", "gen:neglog"),
        1500, 170.0),
    "harness-exact": Workload(
        "harness", ("product", "hamacher2"), 300, 8.0),
}

HARNESS_ARGS = {"n": 12, "arch_grid_n": 8}


def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- host speed ---------------------------------------------------------------


def calibration_kernel():
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return s


def kernel_seconds() -> float:
    a = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - a


class Speed:
    """Kernel timings through a pass; ``scale(t)`` turns a time measured
    at ``t`` into a reference-speed time."""

    def __init__(self):
        self.at, self.took = [], []

    def sample_if_due(self):
        now = time.perf_counter()
        if not self.at or now - self.at[-1] >= CAL_EVERY_S:
            took = kernel_seconds()
            self.at.append(now)
            self.took.append(took)

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + CAL_WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.at, t)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
        return CAL_REF_S / statistics.median(self.took[lo:hi])


# -- set-up -------------------------------------------------------------------


def import_library():
    if not (SRC / "subnormforge" / "__init__.py").is_file():
        fail(f"no subnormforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import subnormforge

    if Path(subnormforge.__file__).resolve().parent != SRC / "subnormforge":
        fail(f"imported subnormforge from {subnormforge.__file__}, not {SRC}")
    return subnormforge


def golden_checks(lib, fns):
    """README and golden spot values, checked before anything is timed."""
    F = Fraction
    for name, tn, x, y, want in (("half_jump", "hamacher2", F(1, 2), F(1, 2), F(2, 25)),
                                 ("plateau", "product", F(3, 4), F(4, 5), F(3, 5))):
        got = lib.f_eval(lib.make_op(fns[name], lib.parse_tnorm(tn)), x, y)
        if got != want:
            fail(f"spot value F({x},{y}) for {name}/{tn} is {got}, expected {want}")


def setup(w: Workload, seed: int):
    """Import, generate the corpus as text, parse it, parse the t-norms and
    check the spot values.  Returns (library, texts, functions, t-norms)."""
    lib = import_library()
    from corpus import corpus

    texts = corpus(seed, w.n_fns)
    fns = {name: lib.parse_fn(text) for name, text in texts}
    tnorms = {fam: lib.parse_tnorm(fam) for fam in w.families}
    golden_checks(lib, fns)
    # warm lazy initialisation (mpmath, first-use imports) in every family
    for t in tnorms.values():
        lib.classify(fns["identity"], t)
    return lib, texts, fns, tnorms


def unit_list(w: Workload, texts, seed: int, seconds: float) -> list:
    """A seeded shuffle of the workload's (function, family) pairs, cut (or
    cycled) to the count that ``--seconds`` buys."""
    pairs = [(name, fam) for name, _ in texts for fam in w.families]
    random.Random(seed).shuffle(pairs)
    k = max(TAIL_BEYOND + 1, math.ceil(seconds * w.rate))
    return [pairs[i % len(pairs)] for i in range(k)]


def setup_seconds(raw: float) -> float:
    """Set-up time at reference speed, from kernel timings just after it."""
    took = statistics.median(kernel_seconds() for _ in range(7))
    return raw * CAL_REF_S / took


def setup_samples(args, own: float) -> list:
    samples = [own]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                              "--workload", args.workload, "--seed", str(args.seed)],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


# -- running units ------------------------------------------------------------


def run_unit(lib, w: Workload, f, t):
    """One unit; returns the part of its output that the checks and the
    digest use."""
    if w.kind == "classify":
        r = lib.classify(f, t)
        return tuple((p, v.status, v.witness) for p, v in r.properties.items())
    r = lib.consistency_harness(f, t, **HARNESS_ARGS)
    return (tuple(r.rows), tuple(r.hard_failures))


def run_pass(lib, w, units, fns, tnorms, tracer=None, seconds=math.inf):
    """Each unit once, in order, as a closed loop.  Returns (results,
    reference-speed latencies, errors by unit index).  Stops early after
    ``seconds``, or once ``MAX_SPANS`` spans are held."""
    results, raw, starts, errors = [], [], [], {}
    speed = Speed()
    clock = time.perf_counter
    deadline = clock() + seconds
    for i, (name, fam) in enumerate(units):
        if i and (clock() >= deadline
                  or (tracer is not None and len(tracer) >= MAX_SPANS)):
            break
        if tracer is not None:
            tracer.unit_id = i
        speed.sample_if_due()
        a = clock()
        try:
            res = run_unit(lib, w, fns[name], tnorms[fam])
        except Exception:
            res = ("error",)
            errors[i] = traceback.format_exc()
        raw.append(clock() - a)
        starts.append(a)
        results.append(res)
    speed.sample_if_due()
    return results, [r * speed.scale(a) for r, a in zip(raw, starts)], errors


def check_results(lib, w, units, fns, tnorms, results, errors) -> list:
    """Indices of failed units: raised, a No witness that does not
    re-check, or a harness hard failure."""
    from checks import classify_failures

    ops = {}
    failed = []
    for i, res in enumerate(results):
        if i in errors:
            failed.append(i)
        elif w.kind == "harness":
            if res[1]:
                failed.append(i)
        else:
            if units[i] not in ops:
                name, fam = units[i]
                ops[units[i]] = lib.make_op(fns[name], tnorms[fam])
            if classify_failures(ops[units[i]], res):
                failed.append(i)
    for i in failed[:5]:
        name, fam = units[i]
        print(f"FAILED unit {i} ({name}, {fam}): {errors.get(i) or results[i]!r}",
              file=sys.stderr)
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(lib, w, units, fns, tnorms, args, setup_s):
    from checks import digest

    samples = setup_samples(args, setup_s)
    t_start = time.perf_counter()
    results, lat, errors = run_pass(lib, w, units, fns, tnorms)
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_results(lib, w, units, fns, tnorms, results, errors)
    n = len(units)
    pct = next(p for p in TAIL_PERCENTILES
               if n * (100 - p) / 100 >= TAIL_BEYOND or p == TAIL_PERCENTILES[-1])
    tail = statistics.quantiles(lat, n=1000, method="inclusive")[round(pct * 10) - 1]
    print(f"workload {args.workload} seed {args.seed}: {n} units in {wall:.3f} s wall")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in samples)}")
    print(f"latency_tail_ms is p{pct:g} of {n} unit samples "
          f"({n * (100 - pct) / 100:g} beyond it)")
    print(f"failed {len(failed)} of {n} units")
    print(f"digest {digest(results)}")
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "units_per_s": metric(n / sum(lat), "1/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": metric(1e3 * tail, "ms"),
        "ok_share": metric((n - len(failed)) / n, "share"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return not failed, n, len(failed), metrics


def per_layer(lib, w, units, fns, tnorms, texts, args):
    """Units traced until a budget runs out, then the same units untraced."""
    from checks import digest
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        for _, text in texts:
            lib.parse_fn(text)
        traced, lat, errors = run_pass(lib, w, units, fns, tnorms, tracer=tracer,
                                       seconds=TRACED_SHARE * args.seconds)
    finally:
        tracer.uninstall()
    n = len(traced)
    base, base_lat, base_errors = run_pass(lib, w, units[:n], fns, tnorms)
    failed = check_results(lib, w, units, fns, tnorms, traced, errors)
    d_base, d_traced = digest(base), digest(traced)
    print(f"workload {args.workload} seed {args.seed}: {n} units traced, "
          f"{len(tracer)} spans")
    print(f"digest untraced {d_base}")
    print(f"digest traced   {d_traced}")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.bin")
    m = {name: metric(value, unit)
         for name, (value, unit) in layer_metrics(tracer, n).items()}
    m["trace.overhead_share"] = metric(sum(lat) / sum(base_lat) - 1, "share")
    correct = not failed and not base_errors and d_base == d_traced
    return correct, n, len(failed), m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    lib, texts, fns, tnorms = setup(w, args.seed)
    setup_s = setup_seconds(time.perf_counter() - T0)
    if args.setup_only:
        print(f"{setup_s:.6f}")
        return

    units = unit_list(w, texts, args.seed, args.seconds)
    if args.trace:
        correct, attempted, failed, metrics = per_layer(lib, w, units, fns, tnorms,
                                                        texts, args)
    else:
        correct, attempted, failed, metrics = end_to_end(lib, w, units, fns, tnorms,
                                                         args, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
