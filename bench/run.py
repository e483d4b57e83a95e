#!/usr/bin/env python3
"""Benchmark of msfem_split: set-up cost and sampling throughput.

    python3 bench/run.py                  # every workload, end-to-end metrics
    python3 bench/run.py --trace 1        # every workload, per-layer metrics
    python3 bench/run.py --smoke          # tiny sizes; checks the output shape
    python3 bench/run.py --workload mc-r4 --seed 12345 --seconds 10 --trace 0

The library is imported from the src/ directory next to bench/, never from an
installed copy. A single-workload run prints its metrics by name and unit and
ends with one JSON line holding the keys correct, attempted, failed and
metrics; it also writes bench/out/<workload>-seed<seed>-trace<t>.json and,
when traced, the spans in bench/out/<workload>-seed<seed>.spans.json.
See bench/README.md for the workloads and what each metric should move.
"""

import os

# One BLAS thread: each workload is a single-threaded closed loop, and a
# pinned thread count keeps set-up times steady from process to process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
OUT = SCRIPT.parent / "out"
LAYERS = ("mesh", "field", "fem", "basis", "msfem", "stochastic")
# set-ups per run, each in a fresh process as a CLI user pays it
SETUP_REPS = 3
# driver calls per run at least, however short --seconds is
MIN_CALLS = 3
CHILD_TIMEOUT_S = 600


def _gflop(counters, args, result):
    n = args[0].shape[0]
    key = "fem.solve_spd.gflop_computed"
    counters[key] = counters.get(key, 0.0) + n ** 3 / 3e9


def _store_mb(counters, args, result):
    counters["stochastic.green_store_mb"] = result.matrices.nbytes / 2 ** 20


# counters recorded at wrapped boundaries: name -> f(counters, args, result)
HOOKS = {"fem.solve_spd": _gflop,
         "stochastic.precompute_green_inverses": _store_mb}
COUNTERS = ("fem.solve_spd.gflop_computed", "stochastic.green_store_mb")


def import_library():
    """Import msfem_split from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "msfem_split" / "__init__.py").is_file():
        sys.exit(f"error: library source {src / 'msfem_split'} not found")
    sys.path.insert(0, str(src))
    import msfem_split
    return msfem_split


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(values, better):
    """(percentile, value) with ten values worse than it.

    None below 20 values, where that value would sit on the better side of
    the median.
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values, reverse=(better == "higher"))
    return 100.0 * (n - 10) / n, ordered[n - 11]


def fresh_setup(args):
    """Time one set-up in a new interpreter."""
    cmd = [sys.executable, str(SCRIPT), "--setup-only",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def timed_setup(wl, w):
    t0 = time.perf_counter()
    state = wl.set_up(w)
    return state, time.perf_counter() - t0


def sample(wl, w, state, seed, seconds=None, calls=None, tracer=None):
    """Driver calls for `seconds` (at least MIN_CALLS), or exactly `calls`.

    Returns the wall time of each call and the (passed, ratio) checks.
    """
    times, checks = [], []
    t_end = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (i < calls if calls is not None else
           i < MIN_CALLS or time.perf_counter() < t_end):
        if tracer is not None:
            tracer.start_request(f"call-{i}")
        t0 = time.perf_counter()
        try:
            stats = wl.drive(w, state, wl.call_seed(seed, i))
        except Exception:  # a failed driver call is a failed check
            traceback.print_exc()
            checks.append((False, None))
        else:
            checks.extend(wl.check(w, stats))
        times.append(time.perf_counter() - t0)
        i += 1
    return times, checks


def run_untraced(args, wl, w, seed):
    setups = [fresh_setup(args) for _ in range(SETUP_REPS - 1)]
    state, own = timed_setup(wl, w)
    setups.append(own)
    times, checks = sample(wl, w, state, seed, seconds=args.seconds)
    setup_s = statistics.median(setups)
    series = {
        "setup_s": setups,
        "samples_per_s": [w.N / t for t in times],
        "run_s": [setup_s + t for t in times],
        "peak_rss_mb": [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    return series, checks, {}


def run_traced(args, wl, w, seed, msfem_split):
    from spans import Tracer

    tracer = Tracer()
    tracer.install(msfem_split, LAYERS, HOOKS)
    try:
        state = wl.set_up(w)
        mark = tracer.mark()
        counted = dict(tracer.counters)
        traced, checks = sample(wl, w, state, seed, seconds=args.seconds / 2,
                                tracer=tracer)
    finally:
        tracer.uninstall()
    untraced, _ = sample(wl, w, state, seed, calls=len(traced))

    # every value is per set-up plus one driver call, the unit of run_s
    k = len(traced)
    in_setup, in_calls = tracer.summary(0, mark), tracer.summary(mark)
    values = {}
    for name in tracer.wrapped:
        values[f"{name}.calls"] = in_setup[name][0] + in_calls[name][0] / k
        values[f"{name}.self_s"] = in_setup[name][1] + in_calls[name][1] / k
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            values[f"{n}.self_s"] for n in tracer.wrapped
            if n.startswith(layer + "."))
    driver = "stochastic." + ("monte_carlo_run" if w.L is None
                              else "collocation_run")
    if f"{driver}.self_s" in values:
        values["stochastic.driver.self_s"] = values[f"{driver}.self_s"]
    for key in COUNTERS:
        before = counted.get(key, 0.0)
        values[key] = before + (tracer.counters.get(key, 0.0) - before) / k
    ratios = [ratio for _, ratio in checks if ratio is not None]
    values["stochastic.max_error_over_bound"] = max(ratios, default=0.0)
    # set-up makes few spans and is timed once per process, where its
    # run-to-run spread would swamp its tracing cost: compare the calls only
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{w.name}-seed{seed}.spans.json")
    functions = {name: {"calls": values[f"{name}.calls"],
                        "self_s": values[f"{name}.self_s"]}
                 for name in tracer.wrapped}
    return {name: [v] for name, v in values.items()}, checks, functions


def problems_with(line, spec_metrics):
    """What is wrong with a result line: keys, metric names and units."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(result)}"]
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    out = [f"{k}: unit {got.get(k)!r}, want {u!r}"
           for k, u in want.items() if got.get(k) != u]
    out += [f"{k}: not in BENCHMARK.json" for k in set(got) - set(want)]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append(f"{result['failed']} of {result['attempted']} checks "
                   f"failed")
    return out


def run_workload(args, spec):
    msfem_split = import_library()
    import workloads as wl

    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = wl.tiny(w)
    if args.setup_only:
        _, setup_s = timed_setup(wl, w)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    seed = w.second_seed if args.second_seed else (
        w.seed if args.seed is None else args.seed)

    if args.trace:
        series, checks, functions = run_traced(args, wl, w, seed, msfem_split)
    else:
        series, checks, functions = run_untraced(args, wl, w, seed)
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec_metrics if m["name"] not in series]

    info = machine()
    print(f"# workload {w.name} seed {seed} trace {args.trace} "
          f"seconds {args.seconds} N {w.N} per driver call")
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    report = {}
    for m in spec_metrics:
        values = series.get(m["name"], [0.0])
        entry = {"median": statistics.median(values), "n": len(values),
                 "unit": m["unit"]}
        line = f"{w.name} {m['name']} = {entry['median']:.6g} {m['unit']}"
        if len(values) > 1:
            line += f" (median of {len(values)}"
            worst = tail(values, m["better"])
            if worst:
                entry["tail"] = {"percentile": worst[0], "value": worst[1]}
                line += f"; p{worst[0]:.0f} worst side {worst[1]:.6g}"
            line += ")"
        report[m["name"]] = dict(entry, values=values)
        print(line)
    failed = sum(not ok for ok, _ in checks)
    print(f"{w.name} ops_failed = {failed / len(checks):.6g} share "
          f"({failed} of {len(checks)} checks failed)")
    for name in missing:
        print(f"{w.name} missing: {name} is no longer in the library "
              f"(reported as 0)")
    for name, f in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name:48s} self {f['self_s']:10.6f} s  "
              f"calls {f['calls']:10.1f}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{w.name}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": w.name, "seed": seed, "machine": info,
                   "settings": {"seconds": args.seconds, "N": w.N,
                                "setup_reps": SETUP_REPS,
                                "smoke": args.smoke},
                   "metrics": report, "ops_failed": failed,
                   "checks": len(checks), "missing": missing,
                   "functions": functions}, fh, indent=1)

    result = {"correct": failed == 0, "attempted": len(checks),
              "failed": failed,
              "metrics": {m["name"]: {"value": report[m["name"]]["median"],
                                      "unit": m["unit"]}
                          for m in spec_metrics}}
    print(json.dumps(result))
    return 1 if args.smoke and missing else 0


def run_all(args, spec):
    """Every workload in its own process, so peak memory is per workload."""
    import_library()
    traces = (0, 1) if args.smoke else (args.trace,)
    ok = True
    for w in spec["workloads"]:
        for trace in traces:
            cmd = [sys.executable, str(SCRIPT), "--workload", w["name"],
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            cmd += ["--second-seed"] * args.second_seed + \
                ["--smoke"] * args.smoke
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=CHILD_TIMEOUT_S)
            lines = res.stdout.splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            problems = problems_with(
                lines[-1], spec["per_layer" if trace else "end_to_end"])
            if res.returncode:
                problems.append(f"exit code {res.returncode}")
            for p in problems:
                print(f"{w['name']} trace {trace}: {p}")
            ok = ok and not problems
    print("all workloads: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: the reference config's)")
    ap.add_argument("--second-seed", action="store_true",
                    help="use the workload's held-out second seed")
    ap.add_argument("--seconds", type=float,
                    help="length of the sampling phase (default: "
                         "run_seconds of BENCHMARK.json; 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="4x4 mesh, r=4, N=2; fail if a metric is missing. "
                         "Without --workload, runs both trace settings")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.second_seed and args.seed is not None:
        ap.error("--seed and --second-seed exclude each other")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
