#!/usr/bin/env python3
"""stack3d performance benchmark runner.

Builds the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/ at the repository root, runs one workload in its own
process, checks its outputs against the committed digests, and prints
one JSON result line last on stdout.

  python3 perfbench/run.py --workload memory --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --report --runs 10            # steadiness
  python3 perfbench/run.py --selftest                    # helper tests
  python3 perfbench/run.py --regen-digests               # after a model change

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
prints every per-layer metric. The exit code is non-zero when the
build fails, the driver program fails, or any output is wrong. See
perfbench/README.md for the metric catalog.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(BENCH_DIR, "expected_digests.json")

WORKLOADS = ("memory", "logic-thermal", "serve-mix")
BATCH = ("memory", "logic-thermal")

# Latency limit per operation class, seconds (within_limit_frac).
# Batch classes are one study step: twice the step's median on the
# reference host (perfbench/README.md), rounded up to a tenth of a
# second, so a step that doubles misses while the host's 10-30 %
# drift does not. Serve classes are one request, timed from its due
# time.
LIMITS = {
    "memory": 4.9,
    "logic": 4.7,
    "stack-thermal": 0.5,
    "sensitivity": 1.5,
    "transient": 1.3,
    "hit": 0.005,
    "invalid": 0.005,
    "cold": 2.0,
}

# Set-up samples per run, each a set-up-only driver process that the
# driver's --setup-probe spawns and times; set-up time is their
# median. Half are taken before the timed phase and half after it, so
# the median spans the run rather than one moment of a host whose
# speed drifts. A batch set-up is a process start (about 1 ms); a
# serve-mix set-up pre-warms the hot set (about 0.7 s).
SETUP_SAMPLES = {"memory": 40, "logic-thermal": 40, "serve-mix": 6}

DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---- statistics helpers ----------------------------------------------

def _beta_cf(a, b, x):
    """Continued fraction of the regularized incomplete beta function
    (modified Lentz), converging for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300

    def guard(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10000):
        num = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / guard(1.0 + num * d)
        c = guard(1.0 + num / c)
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / guard(1.0 + num * d)
        c = guard(1.0 + num / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(samples, p):
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100): a
    beta-weighted mean of the order statistics around rank p/100 * n.
    Unlike one order statistic it does not jump when the rank falls
    in a sparse stretch of the sample, such as the edge between two
    kinds of study cell."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    q = p / 100.0
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    total, below = 0.0, 0.0
    for i, value in enumerate(ordered, 1):
        upto = beta_cdf(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def supported_percentile(n, p):
    """The highest percentile <= p with at least ten samples beyond it
    (never below the median); the one rule every reported tail uses."""
    if n <= 0:
        return 50.0
    return max(50.0, min(p, 100.0 * (1.0 - 10.0 / n)))


def tail(samples, p, name):
    """Percentile p of samples under the ten-beyond rule, warning when
    the sample is too small to support p."""
    q = supported_percentile(len(samples), p)
    if q < p:
        log(f"warning: {name}: {len(samples)} samples support only "
            f"p{q:.1f}, reporting that instead of p{p:g}")
    return percentile(samples, q)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def selftest():
    def near(x, y, tol=1e-9):
        return abs(x - y) <= tol

    def binomial_tail(a, b, x):
        # I_x(a, b) for whole a, b: P(Binomial(a + b - 1, x) >= a).
        n = a + b - 1
        return sum(math.comb(n, j) * x ** j * (1 - x) ** (n - j)
                   for j in range(a, n + 1))

    for a, b, x in ((1, 1, 0.3), (2, 1, 0.7), (3, 5, 0.3), (5, 3, 0.9),
                    (40, 60, 0.45), (900, 100, 0.9)):
        assert near(beta_cdf(a, b, x), binomial_tail(a, b, x), 1e-9), (
            a, b, x)
    assert near(beta_cdf(7.5, 7.5, 0.5), 0.5)
    assert near(percentile([3, 1, 2], 50), 2)
    assert near(percentile([5], 99), 5)
    assert near(percentile([2.0] * 10, 90), 2)
    hundred = list(range(1, 101))
    assert 90 < percentile(hundred, 90) < 91.5
    assert percentile(hundred, 50) < percentile(hundred, 90) < \
        percentile(hundred, 99) <= 100
    assert supported_percentile(100, 90) == 90
    assert supported_percentile(1000, 99) == 99
    assert abs(supported_percentile(200, 99) - 95.0) < 1e-12
    assert supported_percentile(12, 90) == 50.0
    assert 990 < tail(list(range(1, 1001)), 99, "t") < 992
    assert 190 < tail(list(range(1, 201)), 99, "t") < 192
    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25), (q1, q2, q3)
    assert abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 1.0) < 1e-12
    assert spread([2.0] * 10) == 0.0
    print("selftest ok")


# ---- build and drive -------------------------------------------------

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no stack3d sources next to the benchmark; "
            "nothing to build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def spawn(workload, seed, seconds, trace, extra=()):
    """Run the driver once. Returns its last stdout line, parsed."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"driver timed out after {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def setup_samples(workload, seed, count):
    """Set-up times (s) of count set-up-only driver processes."""
    return spawn(workload, seed, 0, 0,
                 ("--setup-probe", str(count)))["setup_s"]


def run_passes(workload, seed, seconds, trace):
    """Result records of one run. An untraced run is one driver
    process, which times the run's seconds itself (a batch driver
    after one warm-up pass). A traced batch run starts one pass and
    its direct-call composition per fresh process, so that trace
    memory growth is measured from a clean heap, until the run's
    seconds are spent."""
    if not trace or workload not in BATCH:
        return [spawn(workload, seed, seconds, trace)]
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, 0, trace))
        if time.monotonic() - t0 >= seconds:
            return passes


def merge(records):
    """One record from several driver records (traced batch passes):
    samples pooled, per-process figures (peak RSS, per-layer metrics)
    as medians."""
    out = {"iterations": [], "latencies": {}, "ops": {}, "failures": [],
           "attempted": 0, "failed": 0}
    for r in records:
        out["iterations"] += r["iterations"]
        for key in ("latencies", "ops"):
            for name, samples in r[key].items():
                out[key].setdefault(name, []).extend(samples)
        out["failures"] += r["failures"]
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                           for r in records)
    out["layers"] = {name: statistics.median(r["layers"][name]
                                             for r in records)
                     for name in records[0]["layers"]}
    return out


def check_digests(workload, record):
    """{output name: mismatch message} of a driver record against the
    committed payload digests. A batch record names the input variant
    its seed selected."""
    with open(DIGESTS) as f:
        expected = json.load(f)
    if workload in BATCH:
        want = expected[workload][str(record["variant"])]
    else:
        want = expected[workload]
    got = record["digests"]
    return {name: f"{workload}/{name}: payload digest {got.get(name)} "
                  f"!= committed {digest}"
            for name, digest in sorted(want.items())
            if got.get(name) != digest}


def end_to_end(workload, record, setup_s):
    iters = record["iterations"]
    ops = record["ops"]
    attempted = sum(len(v) for v in ops.values())
    within = sum(1 for cls, v in ops.items() for lat, ok in v
                 if ok and lat <= LIMITS[cls])
    if workload == "serve-mix":
        cold = [lat for lat, _ in ops["cold"]]
    else:
        # Every pass holds the same cells, so pooling all of them
        # keeps the mix of cell kinds the same in every run.
        cold = record["latencies"]["cell"]
    return {
        "wall_s": statistics.median(i["wall_s"] for i in iters),
        "setup_s": setup_s,
        "cpu_s": statistics.median(i["user_s"] + i["sys_s"]
                                   for i in iters),
        "peak_rss_mb": record["peak_rss_mb"],
        "within_limit_frac": within / attempted,
        "cold_p50_ms": 1e3 * percentile(cold, 50),
        "cold_p90_ms": 1e3 * tail(cold, 90, "cold_p90_ms"),
    }


def per_layer(workload, record, names):
    layers = dict(record["layers"])
    if workload == "serve-mix":
        hits = [lat for lat, _ in record["ops"]["hit"]]
        layers["serve.hit_p50_us"] = 1e6 * percentile(hits, 50)
        layers["serve.hit_p99_us"] = 1e6 * tail(hits, 99, "serve.hit_p99_us")
        layers["loadgen.late_p99_ms"] = 1e3 * tail(
            record["latencies"]["late"], 99, "loadgen.late_p99_ms")
    attempted = max(1, record["attempted"])
    layers["bench.failed_frac"] = record["failed"] / attempted
    # Layers a workload does not exercise did no work: report 0.
    return {name: layers.get(name, 0.0) for name in names}


# Section 3/4 headline values beside the paper's, where the repo's
# paper-anchor tests state one (tests/test_cpu.cc pins Table 4's total
# gain near the paper's ~15%); the others are unvalidated here.
PAPER = {
    "model.avg_cpma_reduction_32m": None,
    "model.bw_reduction_factor_32m": None,
    "model.table4_total_gain_pct": "~15 % (test_cpu: 9-20 %)",
    "model.fig11_stacked_peak_c": None,
}


def measure(workload, seed, seconds, trace, bench):
    """One benchmark run. Returns the result object (correct,
    attempted, failed, metrics) and the failure messages."""
    half = 0 if trace else SETUP_SAMPLES[workload] // 2
    setups = setup_samples(workload, seed, half) if half else []
    passes = run_passes(workload, seed, seconds, trace)
    if half:
        setups += setup_samples(workload, seed, half)

    digest_errors = []
    for r in passes:
        bad = check_digests(workload, r)
        digest_errors += bad.values()
        r["attempted"] += len(r["digests"])
        r["failed"] += len(bad)
        # A batch step whose output is wrong misses its limit too.
        for name in bad.keys() & r["ops"].keys():
            r["ops"][name] = [[lat, False] for lat, _ in r["ops"][name]]
    record = merge(passes)
    errors = record["failures"] + digest_errors
    attempted, failed = record["attempted"], record["failed"]

    units = {}
    if trace:
        specs = bench["per_layer"]
        values = per_layer(workload, record, [m["name"] for m in specs])
    else:
        specs = bench["end_to_end"]
        values = end_to_end(workload, record, statistics.median(setups))
    for m in specs:
        units[m["name"]] = m["unit"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return result, errors


def print_table(workload, result, errors):
    log(f"== {workload}: attempted {result['attempted']}, failed "
        f"{result['failed']} (failed_frac "
        f"{result['failed'] / max(1, result['attempted']):.4g})")
    for name, m in result["metrics"].items():
        note = ""
        if name in PAPER:
            note = "  paper: " + (PAPER[name] or "none stated (unvalidated)")
        log(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    for e in errors:
        log("  FAIL:", e)


# ---- steadiness report -----------------------------------------------

def report(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    raw = {}
    flagged = []
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed0 + i
            result, errors = measure(workload, seed, args.seconds, 0, bench)
            if errors:
                flagged.append(f"{workload} seed {seed}: {errors[0]}")
            runs.append(result)
            log(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()))
        raw[workload] = runs
        log(f"\n== {workload}: {len(runs)} runs, seeds {args.seed0}.."
            f"{args.seed0 + args.runs - 1}")
        log(f"  {'metric':20s} {'unit':6s} {'median':>12s} {'q1':>12s} "
            f"{'q3':>12s} {'iqr/med':>8s} {'bound':>6s}  n")
        for name in units:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if s > bounds[name]:
                flag = "  OVER BOUND"
                flagged.append(f"{workload} {name}: spread {s:.3f} > "
                               f"bound {bounds[name]}")
            elif s > bounds[name] / 3:
                flag = "  over bound/3"
            log(f"  {name:20s} {units[name]:6s} {q2:12.6g} {q1:12.6g} "
                f"{q3:12.6g} {s:8.4f} {bounds[name]:6.3f}  "
                f"{len(values)}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    for f in flagged:
        log("FLAG:", f)
    return 1 if flagged else 0


def regen_digests():
    """Rewrite expected_digests.json from the current program. Only
    for a change that is meant to alter model outputs."""
    out = {}
    for workload in BATCH:
        out[workload] = {}
        seed, variants = 0, 1
        while seed < variants:
            record = spawn(workload, seed, 0, 0)
            if record["failed"]:
                raise RuntimeError(f"{workload}: {record['failures']}")
            variants = record["variants"]
            out[workload][str(record["variant"])] = record["digests"]
            log(f"{workload} variant {record['variant']}: "
                f"{record['digests']}")
            seed += 1
    record = spawn("serve-mix", 0, 1, 0)
    if record["failed"]:
        raise RuntimeError(f"serve-mix: {record['failures']}")
    out["serve-mix"] = record["digests"]
    with open(DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote", DIGESTS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed-phase length (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="steadiness report over --runs seeds")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", help="report: write raw results here")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--regen-digests", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        selftest()
        return 0
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    build()
    if args.regen_digests:
        regen_digests()
        return 0
    if args.report:
        return report(args, bench)
    if not args.workload:
        ap.error("--workload is required")
    try:
        result, errors = measure(args.workload, args.seed, args.seconds,
                                 args.trace, bench)
    except (RuntimeError, KeyError, ValueError) as e:
        log("perfbench:", e)
        return 1
    print_table(args.workload, result, errors)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
