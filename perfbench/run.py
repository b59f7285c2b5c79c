"""toriq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide-fans --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; toriq is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
a separate run prints the per-layer metrics and writes its spans to
``perfbench/out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
any op fails its check, 2 when the checkout has no toriq source.

Times (set-up, ops/s, p50, p90) are scaled to a reference host speed:
after every op the run times a fixed pure-Python loop that calls no toriq
code, and each op's latency is scaled by how much slower than nominal
that loop ran around it (see ``host_adjusted``).  Unscaled whole-run
figures are printed too.

Workloads (each run starts a fresh interpreter, so the library's caches
start empty and the hit pattern repeats from run to run):

* ``cli-shipped``: the toriq CLI, one child process per op, over the
  shipped fans.  Mostly interpreter start-up and import.
* ``wide-fans``: analyze of polygon fans and blown-up cp3 (many rays).
  Mostly the discriminant scan.
* ``deep-cones``: analyze of weighted planes, Hirzebruch surfaces and
  products of projective spaces (large determinants, high rank), each op
  from empty library caches.  Mostly Hilbert bases.
* ``orbits``: homogeneous-model point pairs on a few reused fans, plus a
  solenoid round trip and a K-ring reduction.  Mostly ``same_orbit``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 200          # p90 has at least 20 samples beyond it
HARD_STOP_S = 90.0     # a run ends here even short of MIN_OPS
SETUP_REPEATS = 7
SETUP_PROBES = 9

# The host-speed probe: REFERENCE_ITERATIONS turns of ``reference_loop``
# take REFERENCE_LOOP_S at the reference speed (about the typical speed of
# a 2-vCPU cloud VM with Python 3.11).  SMOOTH probes around an op, about a
# second of run time, give its speed: that follows the host's slow drifts
# and averages out its fast flips.
REFERENCE_ITERATIONS = 25000
REFERENCE_LOOP_S = 0.002
SMOOTH = 31

E2E = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = {
    "fans": ["load_fan", "build_fan"],
    "quotient": ["charge_matrix", "group_structure", "discriminant_locus", "fan_symmetry",
                 "aut_presentation"],
    "cones": ["dual_cone", "hilbert_basis"],
    "moment": ["face_lattice", "delzant_report"],
    "intlinalg": ["IntMatrix.from_rows", "smith_normal_form", "integer_kernel"],
    "homogeneous": ["act", "power_map", "check_equivariance", "same_orbit"],
    "solenoid": ["refine", "cover_map", "sol_exp"],
    "kring": ["parse_expression", "reduce", "oracle_reduce"],
}
LAYER_COUNTS = {
    "quotient.discriminant_locus.members": "count",
    "cones.hilbert_basis.elements": "count",
    "cones.det_sum": "count",
    "homogeneous.same_orbit.prime_bits_max": "bits",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
             "cli.errors": "count"}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            units[f"{layer}.{fn}.s"] = "s"
            units[f"{layer}.{fn}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units.update(LAYER_COUNTS)
    import workloads
    for name in workloads.CACHED:
        for what in ("hits", "misses", "size"):
            units[f"cache.{name}.{what}"] = "count"
    units.update({"trace.ops": "count", "trace.unaccounted_share": "fraction",
                  "trace.overhead_ratio": "ratio"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["cli-shipped", "wide-fans", "deep-cones", "orbits"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop after this many ops (short test runs)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--untraced-ops", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def reference_loop(n: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter-bound work that calls no toriq code."""
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def probe() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def host_adjusted(latencies, probes):
    """Each latency scaled to the reference host speed.

    ``probes[i]`` is the reference loop timed right after op ``i``; op
    ``i`` is scaled by the median of the SMOOTH probes centred on it.  On a
    shared host the CPU runs fast or up to 1.5x slower for stretches of
    seconds, and the loop slows down with it, so the scaled latency keeps
    the op's own cost and drops most of the host's.
    """
    half = SMOOTH // 2
    return [lat * REFERENCE_LOOP_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i, lat in enumerate(latencies)]


def timed_loop(wl, run_op, seconds, min_ops, max_ops, tr=None, probes=None):
    """Closed loop, one op at a time.

    Returns (results, latencies, wall, peak RSS in MB).  Peak RSS is read
    once ``min_ops`` ops are done, so it covers the same work however fast
    the ops run.  With a ``probes`` list, the reference loop is timed
    after each op (outside its latency) and appended to it.
    """
    results, latencies = [], []
    rss = None
    t0 = time.perf_counter()
    for index, item in enumerate(wl.items):
        if max_ops is not None and index >= max_ops:
            break
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and index >= min_ops) or elapsed >= HARD_STOP_S:
            break
        if tr is not None:
            tr.op = index
        wl.before_op()
        start = time.perf_counter()
        try:
            if tr is not None:
                result = tr.call("op", run_op, item)
            else:
                result = run_op(item)
        except Exception as exc:  # any exception fails the op and the run goes on
            result = exc
        latencies.append(time.perf_counter() - start)
        results.append(result)
        if probes is not None:
            probes.append(probe())
        if len(results) == min_ops:
            rss = wl.peak_rss_mb()
        if tr is not None:
            wl.after_traced(item, tr)
    wall = time.perf_counter() - t0
    return results, latencies, wall, rss if rss is not None else wl.peak_rss_mb()


def check_all(wl, results):
    """Check every op's output; return per-op failure lists."""
    failures = []
    for item, result in zip(wl.items, results):
        if isinstance(result, Exception):
            tb = "".join(traceback.format_exception_only(type(result), result)).strip()
            failures.append([("op", f"raised {tb}")])
            continue
        try:
            failures.append(wl.check(item, result))
        except Exception as exc:  # a malformed output counts as a failed op
            failures.append([("op", f"check raised {exc!r}")])
    return failures


def quantile(values, q):
    """Percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def report_failures(failures):
    shown = 0
    for index, bad in enumerate(failures):
        for layer, msg in bad:
            if shown < 10:
                print(f"FAIL op {index} [{layer}] {msg}", file=sys.stderr)
            shown += 1


def print_summary(title, summary):
    print(f"# {title}")
    for key, value in summary.items():
        print(f"#   {key}: {value}")


def time_setup(args) -> tuple[float, float]:
    """Median set-up time of fresh processes that import toriq and build the
    inputs, as (scaled to the reference host speed, unscaled).  Each
    process times its own set-up and probes the host speed right after, on
    the CPU it ran on."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(child(args, "--setup-only"), cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        report = json.loads(out.strip().splitlines()[-1])
        raw.append(report["setup_s"])
        scaled.append(report["setup_s"] * REFERENCE_LOOP_S / report["probe_s"])
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(args, wl):
    import workloads

    setup_s, setup_raw = time_setup(args)
    counters = workloads.CacheCounters()
    wl.counters = counters
    probes = []
    results, latencies, wall, rss = timed_loop(wl, wl.run_user, args.seconds, MIN_OPS,
                                               args.max_ops, probes=probes)
    cache = counters.read()
    failures = check_all(wl, results)
    report_failures(failures)
    failed = sum(1 for bad in failures if bad)
    n = len(latencies)
    scaled = host_adjusted(latencies, probes)
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1000,
        "latency_p90_ms": quantile(scaled, 90) * 1000,
        "peak_rss_mb": rss,
    }
    print_summary(f"{args.workload} inputs (seed {args.seed})", wl.summary(n))
    print(f"# closed loop, 1 client; {n} timed ops in {wall:.2f} s (probes included); "
          f"unscaled: {n / sum(latencies):.4g} ops/s, "
          f"p50 {statistics.median(latencies) * 1000:.4g} ms, "
          f"p90 {quantile(latencies, 90) * 1000:.4g} ms, set-up {setup_raw:.4g} s")
    print(f"# reference loop: median {statistics.median(probes) * 1000:.4g} ms against "
          f"{REFERENCE_LOOP_S * 1000:.4g} ms nominal; p90 has {n - int(0.9 * n)} samples beyond it")
    for name, (hits, misses, size) in cache.items():
        print(f"# cache {name}: {hits} hits, {misses} misses, size {size}")
    for name, unit in E2E.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"error_rate {failed / n:.6g} fraction ({failed} of {n} ops failed)")
    return n, failed, {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}


def cli_probe_ms(code: str, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def cli_main_ms(counters) -> tuple[float, int]:
    """Median in-process ``toriq.cli.main`` over every shipped fan and
    command, caches emptied before each call.  Returns (ms, failures)."""
    import workloads
    cli = workloads.CliWorkload(0, 27)
    times, failed = [], 0
    for item in cli.items:
        counters.clear()
        t0 = time.perf_counter()
        result = workloads.call_main(item[3])
        times.append(time.perf_counter() - t0)
        failed += bool(cli.check(item, result))
    return statistics.median(times) * 1000, failed


def traced(args, wl):
    import workloads
    from spans import Tracer

    tr = Tracer(True)
    counters = workloads.CacheCounters()
    wl.counters = counters
    results, latencies, wall, _ = timed_loop(wl, lambda item: wl.run_traced(item, tr),
                                          args.seconds, MIN_OPS, args.max_ops, tr)
    cache = counters.read()
    failures = check_all(wl, results)
    report_failures(failures)
    failed = sum(1 for bad in failures if bad)
    n = len(latencies)

    # tracing overhead: the same first ops, untraced, in a fresh process
    probe_ops = max(1, n // 4)
    out = subprocess.run(child(args, "--untraced-ops", str(probe_ops)), cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    untraced_wall = json.loads(out.strip().splitlines()[-1])["wall"]
    overhead = sum(latencies[:probe_ops]) / untraced_wall

    main_ms, main_failed = cli_main_ms(counters)
    values = {
        "cli.interpreter_ms": cli_probe_ms("pass"),
        "cli.import_ms": cli_probe_ms("import toriq"),
        "cli.main_ms": main_ms,
    }
    errors = {layer: tr.errors.get(layer, 0) for layer in ["cli", *LAYER_FUNCTIONS]}
    errors["cli"] += main_failed
    for bad in failures:
        for layer in {layer for layer, _ in bad}:
            if layer in errors:
                errors[layer] += 1
    busy = tr.busy()
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            seconds, calls = busy.get(f"{layer}.{fn}", (0.0, 0))
            values[f"{layer}.{fn}.s"] = seconds
            values[f"{layer}.{fn}.calls"] = calls
    for layer, count in errors.items():
        values[f"{layer}.errors"] = count
    for name in LAYER_COUNTS:
        values[name] = tr.counters.get(name, tr.maxima.get(name, 0))
    for name, (hits, misses, size) in cache.items():
        values[f"cache.{name}.hits"] = hits
        values[f"cache.{name}.misses"] = misses
        values[f"cache.{name}.size"] = size
    values["trace.ops"] = n
    values["trace.unaccounted_share"] = tr.unaccounted_share("op")
    values["trace.overhead_ratio"] = overhead

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write(span_file)
    meta = run_metadata(args)
    with open(OUT / f"meta-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)

    print_summary(f"{args.workload} inputs (seed {args.seed})", wl.summary(n))
    print_summary("run metadata", meta)
    print(f"# traced: {n} ops in {wall:.2f} s; spans in {span_file.relative_to(ROOT)}")
    dominant, per_op_ms = dominant_metric(args.workload, values, n)
    print(f"# dominant: {dominant} ({per_op_ms:.3f} ms per op; "
          f"op wall {1000 * sum(latencies) / n:.3f} ms per op)")
    units = per_layer_units()
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    return n, failed, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def dominant_metric(workload, values, n_ops):
    """The busy-time metric costing the most per op.

    intlinalg is left out: its calls are the benchmark's own probes, made
    outside the op.  On cli-shipped every op pays one interpreter start and
    import, so ``cli.import_ms`` competes too.
    """
    candidates = {name: 1000 * value / n_ops for name, value in values.items()
                  if name.endswith(".s") and not name.startswith("intlinalg.")}
    if workload == "cli-shipped":
        candidates["cli.import_ms"] = values["cli.import_ms"]
    best = max(candidates, key=candidates.get)
    return best, candidates[best]


def run_metadata(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "toriq").glob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "src_toriq_lines": lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toriq" / "__init__.py").is_file():
        print(f"error: no toriq source under {SRC}; run from a toriq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(args.workload, args.seed, args.seconds, MIN_OPS)
    setup_inproc = time.perf_counter() - START
    # the generated inputs are the benchmark's, not the program's: keep
    # them out of the collector's scans during the timed loop
    gc.freeze()
    if args.setup_only:
        speed = statistics.median(probe() for _ in range(SETUP_PROBES))
        print(json.dumps({"setup_s": setup_inproc, "probe_s": speed}))
        return 0
    if args.untraced_ops is not None:
        from spans import Tracer

        wl.counters = workloads.CacheCounters()
        off = Tracer(False)
        _, latencies, _, _ = timed_loop(wl, lambda item: wl.run_traced(item, off), float("inf"), 0,
                                     args.untraced_ops)
        print(json.dumps({"wall": sum(latencies)}))
        return 0
    print(f"# in-process set-up {setup_inproc:.3f} s")
    if args.trace:
        attempted, failed, metrics = traced(args, wl)
    else:
        attempted, failed, metrics = end_to_end(args, wl)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
