"""bosewave benchmark: one seeded workload, timed end to end or traced.

    python3 perfbench/run.py --workload scan|points|kinetic --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the package is imported from ./src.
A run sets up (imports bosewave and builds the seeded inputs) several
times, then repeats the workload's operations in a fixed number of passes,
sized from S so that they take about S seconds at reference speed, and
checks every result.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics.  Times are calibrated to a reference host
speed (see calibrate.py).  The last line of stdout is the JSON result; the
lines before it give every metric with its unit, and a copy with the
per-operation outcomes and raw times is written under .perfbench-out/.
--workload all runs the three workloads untraced, one child process each,
and prints a table.
"""

import os

# pinned before numpy loads: timings are for one core, whatever the host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
PACKAGE = "bosewave"
WORKLOADS = ("scan", "points", "kinetic")
SETUP_REPS = 5
# nominal seconds of one pass of each workload (its operations take about
# 5, 7 and 8 calibrated seconds); the pass count is fixed by --seconds and
# these alone, never by the clock, so that the same seed always attempts
# and fails the same operations
PASS_SECONDS = {"scan": 6.5, "points": 7.5, "kinetic": 8.5}
MIN_PASSES = 2
TAIL_BEYOND = 10      # operations that must lie beyond the tail percentile

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# printed and written to the result file, but not bounded: failed_ratio can
# be 0 and lambda_err exists on kinetic alone
EXTRA = {"failed_ratio": "ratio", "lambda_err": "ratio", "raw_wall_s": "s"}
LAYER_SELF = ("cli.main", "cli.emit", "analysis.sweep", "analysis.find_hmax",
              "analysis.theta_scan", "dispersion.solve_roots",
              "dispersion.assemble_polynomial", "dispersion.select_branch",
              "dispersion.acoustic_root", "dispersion.root_residual",
              "simulate.run_forced", "simulate.fit_wave",
              "simulate.step_nonlinear", "model.validate")
LAYER_CALLS = ("dispersion.solve_roots", "simulate.build_lattice",
               "model.validate")
REASONS = ("error", "root_count", "uncertified", "oracle", "agreement",
           "conservation")


def _args(argv):
    p = argparse.ArgumentParser(description="bosewave benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _timed(fn):
    """(result, calibrated seconds) of one call between two reference runs."""
    before = calibrate.reference()
    t0 = perf_counter()
    result = fn()
    raw = perf_counter() - t0
    return result, raw * calibrate.scales([before, calibrate.reference()])[0]


def _setup(workload: str, seed: int):
    """Import the package and build the inputs SETUP_REPS times.

    Modules the package pulls in are dropped between repetitions, so each
    one pays the full import; numpy is loaded once beforehand.  Returns the
    last repetition's operations and the median calibrated set-up time.
    """
    before = set(sys.modules)

    def once():
        bw = importlib.import_module(PACKAGE)
        importlib.import_module(PACKAGE + ".cli")
        return workloads.build(workload, seed, bw)

    times = []
    for _ in range(SETUP_REPS):
        for name in set(sys.modules) - before:
            del sys.modules[name]
        ops, seconds = _timed(once)
        times.append(seconds)
    return ops, statistics.median(times)


def _digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


def _run_pass(ops, tracer=None):
    """Call every operation once: raw times, reference times, results.

    ``refs[k]`` and ``refs[k + 1]`` are the reference kernel's times just
    before and just after operation k.
    """
    gc.collect()
    results, times = [], []
    if tracer is not None:
        tracer.install()
    try:
        refs = [calibrate.reference()]
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:   # a failed operation is counted, not fatal
                result = workloads.OpError(type(exc).__name__, str(exc))
            times.append(perf_counter() - t0)
            results.append(result)
            refs.append(calibrate.reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, refs, results


def _short_degree(tracer, args, kwargs, result):
    h_b, theta, n = args[0].params
    if len(result) < n and not workloads.degenerate(theta, n):
        tracer.count("short_degree")


def _uncertified(tracer, args, kwargs, result):
    if result >= workloads.RESIDUAL_TOL:
        tracer.count("uncertified")


OBSERVERS = {"dispersion.solve_roots": _short_degree,
             "dispersion.root_residual": _uncertified}


def _pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def _measure(ops, count: int, traced: bool):
    """`count` passes; traced runs alternate untraced and traced passes."""
    tracer = None
    if traced:
        tracer = spans.Tracer(PACKAGE, OBSERVERS)
    passes = []
    for _ in range(count):
        use = tracer if traced and len(passes) % 2 == 1 else None
        first = len(tracer.spans) if tracer else 0
        counters = dict(tracer.counters) if tracer else {}
        times, refs, results = _run_pass(ops, use)
        scales = calibrate.scales(refs)
        record = {"traced": use is not None, "times": times, "refs": refs,
                  "scales": scales,
                  "verdicts": [op.check(r) for op, r in zip(ops, results)],
                  "digests": [_digest(r) for r in results]}
        if use is not None:
            record["layers"] = tracer.summary(first, len(tracer.spans), scales)
            record["counters"] = {k: v - counters.get(k, 0)
                                  for k, v in tracer.counters.items()}
        passes.append(record)
    return passes, tracer


def _fastest(passes, calibrated=True):
    """Each operation's fastest time over the given passes."""
    return [min(p["times"][k] * (p["scales"][k] if calibrated else 1.0)
                for p in passes) for k in range(len(passes[0]["times"]))]


def _tail(values):
    """Highest percentile with TAIL_BEYOND values beyond it: (pct, value)."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < len(ordered) // 2:
        raise ValueError(f"{len(ordered)} operations are too few for a tail")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _env():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between versions
        openblas = "unknown"
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        revision = rev.stdout.strip() or "unknown"
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_revision": revision, "src_sha256": src.hexdigest()[:16]}


def _summarize(ops, passes, setup_s, traced):
    plain = [p for p in passes if not p["traced"]]
    first = passes[0]
    verdicts = first["verdicts"]
    failed = [v for v in verdicts if v.reason]
    consistent = all(p["digests"] == first["digests"]
                     and p["verdicts"] == verdicts for p in passes)
    correct = consistent and all(v.known for v in failed)
    # each operation at its fastest pass: repeats spread over the run escape
    # the host's shorter slow spells, calibration the longer ones
    per_op = _fastest(plain)
    pct, tail = _tail(per_op)
    lam_errs = [v.lam_err for v in verdicts if v.lam_err is not None]
    values = {
        "wall_s": sum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": len(failed) / len(ops),
        "lambda_err": statistics.median(lam_errs) if lam_errs else None,
        "raw_wall_s": sum(_fastest(plain, calibrated=False)),
    }
    notes = {"wall_s": f"{len(ops)} operations, each the fastest of "
                       f"{len(plain)} passes",
             "op_tail_ms": f"p{pct:.0f} of {len(ops)} operations",
             "setup_s": f"median of {SETUP_REPS} set-ups",
             "failed_ratio": f"{len(failed)} of {len(ops)} operations",
             "lambda_err": f"median of {len(lam_errs)} forced runs",
             "raw_wall_s": "wall_s without calibration"}
    summary = {"correct": correct, "consistent": consistent,
               "attempted": len(ops) * len(passes),
               "failed": sum(bool(v.reason) for p in passes for v in p["verdicts"]),
               "values": values, "notes": notes,
               "outcomes": [{"op": op.label, "reason": v.reason,
                             "known": v.known}
                            for op, v in zip(ops, verdicts)]}
    if traced:
        summary["layers"] = _layers(passes, values["wall_s"])
    return summary


def _layers(passes, untraced_wall):
    traced = [p for p in passes if p["traced"]]
    first = traced[0]
    out = {}
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (min(p["layers"][name][1] for p in traced), "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (first["layers"][name][0], "count")
    roots = sum(v.roots for v in first["verdicts"])
    solves = first["layers"]["dispersion.solve_roots"][0]
    out["dispersion.solves_per_root"] = (solves / roots if roots else 0.0, "ratio")
    for key in ("short_degree", "uncertified"):
        out[f"dispersion.{key}"] = (first["counters"].get(key, 0), "count")
    for reason in REASONS:
        out[f"failed.{reason}"] = (
            sum(v.reason == reason for v in first["verdicts"]), "count")
    out["trace_overhead"] = (sum(_fastest(traced)) / untraced_wall - 1.0, "ratio")
    return out


def _run_one(args) -> int:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: no {PACKAGE} sources under {SRC}; run from "
                         "the root of a bosewave source tree\n")
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    ops, setup_s = _setup(args.workload, args.seed)
    passes, tracer = _measure(ops, _pass_count(args.workload, args.seconds),
                              bool(args.trace))
    summary = _summarize(ops, passes, setup_s, bool(args.trace))
    env = _env()

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} operations={len(ops)} passes={len(passes)} "
          f"correct={summary['correct']}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in dict(END_TO_END, **EXTRA).items():
        value = summary["values"][name]
        shown = "n/a (kinetic only)" if value is None else f"{value:.6g} {unit}"
        note = summary["notes"].get(name)
        print(f"{name:<14} {shown}" + (f"  ({note})" if note and value is not None else ""))
    for op in summary["outcomes"]:
        if op["reason"]:
            known = " (known defect)" if op["known"] else ""
            print(f"failed {op['reason']}{known}: {op['op']}")
    if args.trace:
        metrics = summary["layers"]
        for name, (value, unit) in metrics.items():
            print(f"{name:<34} {value:.6g} {unit}")
    else:
        metrics = {k: (summary["values"][k], u) for k, u in END_TO_END.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    keep = ("correct", "consistent", "attempted", "failed", "notes", "values",
            "outcomes")
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "env": env,
                   **{k: summary[k] for k in keep},
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "passes": [{k: p[k] for k in ("traced", "times", "refs")}
                              for p in passes]},
                  fh, indent=1)
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process (set-up and memory are per process)."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        path = OUT_DIR / f"{workload}-seed{args.seed}-trace0.json"
        results[workload] = json.loads(path.read_text(encoding="utf-8"))
    print(f"\n{'metric':<14}{'unit':>7}" + "".join(f"{w:>14}" for w in results))
    for name, unit in dict(END_TO_END, **EXTRA).items():
        cells = [r["values"][name] for r in results.values()]
        print(f"{name:<14}{unit:>7}" + "".join(
            f"{'-' if v is None else format(v, '.5g'):>14}" for v in cells))
    print(f"{'op_tail_ms at':<21}" + "".join(
        f"{r['notes']['op_tail_ms'].split(' of')[0]:>14}" for r in results.values()))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
