#!/usr/bin/env python3
"""The Atlas benchmark: builds atlas_benchmark from this checkout and runs it.

Run from the repository root:

  python3 benchmark/run.py                      all four workloads once, as a table
  python3 benchmark/run.py --workload W [--seed N] [--trace 0|1]
                                                one run; the last stdout line is its JSON
  python3 benchmark/run.py --repeat N [--workload W] [--out REPORT.json]
                                                N runs per workload, seeds seed..seed+N-1,
                                                median, quartiles and spread per metric
  python3 benchmark/run.py --compare BASE.json... -- CHANGE.json...
                                                verdict per (metric, workload)
  python3 benchmark/run.py --list               the metric catalog

Every run measures for BENCHMARK.json's run_seconds; --seconds is accepted
only with that value. Each workload runs in its own process. The build goes
to $CARGO_TARGET_DIR (default .bench_build) under the repository root. See
benchmark/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m for m in SPEC["per_layer"]}
TIME_UNITS = {"s", "ms", "us"}
BUILD_THREADS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Which end-to-end metric, on which workload, each layer's metrics should
# move. Matched on the longest metric-name prefix.
LAYER_MOVES = {
    "core.compile_ms": "throughput_per_s on oneshot_table1 and serve_mix; only setup_s on vqe_sweep",
    "opt.": "as core.compile_ms",
    "core.canonicalize_ms": "as core.compile_ms",
    "staging.": "as core.compile_ms",
    "kernelize.": "as core.compile_ms",
    "core.program_ms": "as core.compile_ms",
    "core.slot_values_us": "throughput_per_s on vqe_sweep",
    "exec.": "throughput_per_s on oneshot_table1 and vqe_sweep",
    "sim.": "throughput_per_s on oneshot_table1; almost nothing on serve_mix",
    "host.": "none: the roofline's ceiling",
    "noise.": "throughput_per_s on noisy_offload only",
    "device.": "throughput_per_s on noisy_offload only",
    "core.plan_cache_misses_per_call": "throughput_per_s on noisy_offload and serve_mix",
    "serve.": "throughput_per_s on serve_mix only",
    "caller.": "none: the tail of the same calls throughput_per_s counts, demoted from the end-to-end metrics",
    "trace.": "none: traced against untraced time of the same work",
}

# Header fields that must agree between all reports --compare reads.
SAME_KEYS = ("nproc", "llc_bytes", "cpu", "compiler", "build_type", "seconds",
             "trace")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def moves(name):
    best = max((p for p in LAYER_MOVES if name.startswith(p)), key=len, default=None)
    return LAYER_MOVES[best] if best else ""


def build():
    """Configures and builds atlas_benchmark; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("run.py: the Atlas sources (CMakeLists.txt, src/) are not next to benchmark/")
        sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = (target if target.is_absolute() else ROOT / target) / "atlas_benchmark"
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", str(bdir), "--target", "atlas_benchmark",
          "-j", str(BUILD_THREADS)])
    return bdir / "atlas_benchmark"


def step(cmd):
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {cmd[0]} failed: {e}")
        sys.exit(2)
    if rc != 0:
        log(f"run.py: {' '.join(cmd)} exited {rc}")
        sys.exit(2)


def child(cmd):
    """Runs one benchmark process; returns (exit code, parsed last line)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {' '.join(cmd)} timed out")
        return 1, None
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: no result from {' '.join(cmd)} (exit {p.returncode})")
        return p.returncode or 1, None


def host_probe(binary):
    rc, probe = child([str(binary), "--host-probe"])
    if rc != 0 or probe is None:
        sys.exit(2)
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                probe["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return probe


def check_metrics(result, trace):
    """Validates a result against BENCHMARK.json. Per-layer metrics of a
    layer the workload does not run are absent from the program's output
    and reported as 0; every time-valued metric must be measured."""
    spec = LAYER if trace else E2E
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in spec or spec[name]["unit"] != m["unit"]:
            raise ValueError(f"metric {name} ({m['unit']}) is not in BENCHMARK.json")
    for name, m in spec.items():
        if name in metrics:
            continue
        if not trace or m["unit"] in TIME_UNITS:
            raise ValueError(f"metric {name} is missing")
        metrics[name] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = dict(sorted(metrics.items()))


def run_one(binary, workload, seed, trace, stream_gbps=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    if trace:
        if stream_gbps is None:
            stream_gbps = host_probe(binary)["stream_gbps"]
        traces = binary.parent / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", "--stream-gbps", str(stream_gbps),
                "--trace-out", str(traces / f"{workload}-{seed}.json")]
    rc, result = child(cmd)
    if result is None:
        return rc, None
    try:
        check_metrics(result, trace)
    except (KeyError, ValueError) as e:
        log(f"run.py: {workload}: {e}")
        return 1, None
    return rc, result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def write_report(path, header, runs):
    Path(path).write_text(json.dumps({"header": header, "runs": runs}, indent=1) + "\n")
    log(f"wrote {path}")


def cmd_list():
    print(f"{'end-to-end metric':28} {'unit':6} {'better':7} bound")
    for m in SPEC["end_to_end"]:
        print(f"{m['name']:28} {m['unit']:6} {m['better']:7} {m['bound']:.0%}")
    print(f"\n{'per-layer metric':34} {'unit':6} {'layer':9} should move")
    for m in SPEC["per_layer"]:
        layer = m["name"].split(".", 1)[0]
        print(f"{m['name']:34} {m['unit']:6} {layer:9} {moves(m['name'])}")
    print("\nworkloads:")
    for w in SPEC["workloads"]:
        print(f"  {w['name']:16} {w['why']}")


def cmd_runs(args):
    binary = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    repeat = args.repeat or 1
    header = host_probe(binary)
    header.update(seed=args.seed, repeat=repeat, seconds=SECONDS, trace=args.trace)
    log("host: " + json.dumps(header))
    runs, ok = [], True
    for w in workloads:
        for i in range(repeat):
            seed = args.seed + i
            rc, result = run_one(binary, w, seed, args.trace, header["stream_gbps"])
            ok = ok and rc == 0 and result is not None and result["correct"]
            runs.append({"workload": w, "seed": seed, "exit": rc, "result": result})
    print(f"{'workload':15} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}  unit  (n)")
    for w in workloads:
        results = [r["result"] for r in runs if r["workload"] == w and r["result"]]
        if not results:
            print(f"{w:15} FAILED")
            continue
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(vals)
            bound = E2E.get(name, {}).get("bound")
            flag = "" if bound is None or rel <= bound / 3 else "  above a third of bound"
            print(f"{w:15} {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.1%}  "
                  f"{results[0]['metrics'][name]['unit']} ({len(vals)}){flag}")
        failed, attempted = failures([r for r in runs if r["workload"] == w])
        print(f"{w:15} {'error_rate':36} {failed / attempted:12.6g}  "
              f"({failed} of {attempted} ops)")
    if args.out:
        write_report(args.out, header, runs)
    return 0 if ok else 1


def failures(runs):
    """(failed, attempted) over runs; a run without a result is one
    failed attempt."""
    failed = sum(r["result"]["failed"] if r["result"] else 1 for r in runs)
    attempted = sum(r["result"]["attempted"] if r["result"] else 1 for r in runs)
    return failed, max(attempted, 1)


def usable(run):
    """A run whose metrics count: it exited 0 and every check passed."""
    return run.get("exit", 0) == 0 and run["result"] and run["result"]["correct"]


def cmd_compare(base_paths, change_paths):
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (base_paths, change_paths)]
    settings = {tuple(rep["header"].get(k) for k in SAME_KEYS)
                for side in sides for rep in side}
    if len(settings) != 1:
        log("run.py: refusing to compare reports taken on different hosts or "
            "builds, or with different run lengths or trace modes:")
        for s in settings:
            log("  " + ", ".join(f"{k}={v}" for k, v in zip(SAME_KEYS, s)))
        return 2
    runs = [[run for rep in side for run in rep["runs"]] for side in sides]

    print(f"{'workload':15} {'metric':20} {'base':>11} {'change':>11} {'gap':>7} "
          f"{'won-lost':>9} verdict")
    regressed = False
    for w in WORKLOADS:
        base_runs = [r for r in runs[0] if r["workload"] == w]
        change_runs = [r for r in runs[1] if r["workload"] == w]
        if not base_runs or not change_runs:
            continue
        bf, ba = failures(base_runs)
        cf, ca = failures(change_runs)
        more_failures = cf / ca > bf / ba
        for name, m in E2E.items():
            def value(run):
                return run["result"]["metrics"][name]["value"]
            base = [value(r) for r in base_runs if usable(r)]
            change = [value(r) for r in change_runs if usable(r)]
            # A run left out does not shift the pairing of the runs after it.
            pairs = [(value(b), value(c)) for b, c in zip(base_runs, change_runs)
                     if usable(b) and usable(c)]
            if not pairs:
                continue
            verdict, gap, won, lost = verdict_for(base, change, pairs, m)
            if verdict == "improved" and more_failures:
                verdict = "unresolved"  # a gain does not count with more failures
            regressed |= verdict == "regressed"
            print(f"{w:15} {name:20} {statistics.median(base):11.5g} "
                  f"{statistics.median(change):11.5g} {gap:+7.1%} "
                  f"{won:>4}-{lost:<4} {verdict}")
        regressed |= more_failures
        print(f"{w:15} {'failed/attempted':20} {f'{bf}/{ba}':>11} {f'{cf}/{ca}':>11} "
              f"{'':17} {'regressed' if more_failures else 'unchanged'}")
    return 1 if regressed else 0


def verdict_for(base, change, pairs, m):
    """The paired rule, both ways, over the usable runs of each side and
    the (base, change) pairs of runs taken in the same order; ties count
    for neither side. improved: the change wins at least 9/10 of the
    pairs and its median is better by more than the base's interquartile
    range. regressed: the same with the sides swapped. Otherwise
    unresolved when the base spreads wider than the bound and not every
    change run beats every base run, else regressed when the median is
    worse by more than the bound.
    Returns (verdict, relative median gap, pairs won, pairs lost)."""
    lower = m["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(1 for b, c in pairs if better(c, b))
    lost = sum(1 for b, c in pairs if better(b, c))
    bmed, bq1, bq3, brel = spread(base)
    cmed = statistics.median(change)
    gap = (cmed - bmed) / bmed if bmed else 0.0
    worse = gap if lower else -gap
    clear = abs(cmed - bmed) > bq3 - bq1
    if won >= 0.9 * len(pairs) and better(cmed, bmed) and clear:
        return "improved", gap, won, lost
    if lost >= 0.9 * len(pairs) and better(bmed, cmed) and clear:
        return "regressed", gap, won, lost
    if brel > m["bound"] and not all(better(c, b) for c in change for b in base):
        return "unresolved", gap, won, lost
    if worse > m["bound"]:
        return "regressed", gap, won, lost
    return "unchanged", gap, won, lost


def main():
    argv = sys.argv[1:]
    if "--compare" in argv:
        rest = argv[argv.index("--compare") + 1:]
        if "--" not in rest:
            log("usage: run.py --compare BASE.json... -- CHANGE.json...")
            return 2
        cut = rest.index("--")
        return cmd_compare(rest[:cut], rest[cut + 1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SECONDS,
                    help=f"must be run_seconds ({SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds != SECONDS:
        log(f"run.py: every run measures BENCHMARK.json's run_seconds ({SECONDS}), "
            f"not {args.seconds:g}")
        return 2
    if args.list:
        cmd_list()
        return 0
    if args.workload and not args.repeat and not args.out:
        rc, result = run_one(build(), args.workload, args.seed, args.trace)
        if result is None:
            return rc or 1
        print(json.dumps(result))
        return 0 if rc == 0 and result["correct"] else 1
    return cmd_runs(args)


if __name__ == "__main__":
    sys.exit(main())
