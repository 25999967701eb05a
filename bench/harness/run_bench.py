#!/usr/bin/env python3
"""Builds and runs the knnpc benchmark harness (see README.md here).

One run, the interface BENCHMARK.json names; the last stdout line is the
result object:
  python3 bench/harness/run_bench.py --workload offline-build --seed 7 \\
      --seconds 20 --trace 0

Sets of runs, each workload in its own process, workload order reversed
on every other set; prints each metric's median and quartiles:
  python3 bench/harness/run_bench.py --seed 1007 --sets 5 [--trace 1] \\
      [--workloads offline-build,shards-local] [--out results.json]

Compare two result files against the bounds in BENCHMARK.json:
  python3 bench/harness/run_bench.py --compare BASE.json NEW.json

Smoke test (quick sizes, every metric present, every check passing):
  python3 bench/harness/run_bench.py --quick

Regenerate the pinned oracle checksums in expected.tsv:
  python3 bench/harness/run_bench.py --regen-expected

Standard library only. Builds into .bench_build/ at the repository root,
and points TMPDIR there, so a run reads and writes nothing outside the
checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.tsv"
PINNED_SEEDS = (1007, 2024)
# Per-process limits: the oracle replay, and one measured run (its
# warm-up round, the measuring window and the last round's overrun).
ORACLE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170
# A single --workload run, oracle replay included, ends within this many
# seconds after the build.
SINGLE_RUN_BUDGET_S = 170
QUICK_SECONDS = 0.5
# Workloads the binary runs that BENCHMARK.json does not gate: pass them
# to --workloads. The smoke test and --regen-expected cover them too.
EXTRA_WORKLOADS = ("shards-local",)
# Monotonic time by which every child process must have ended, if set.
deadline = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    return json.loads(BENCHMARK.read_text())


# ------------------------------------------------------------------ build

def build(build_dir):
    """Configures (once) and builds knnpc_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"knnpc sources not found under {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4",
                    "--target", "knnpc_bench"], check=True, stdout=sys.stderr)
    return build_dir / "knnpc_bench"


# ---------------------------------------------------------------- process

def run_process(argv, timeout, tmp_root):
    """Runs argv in its own session with TMPDIR under tmp_root; kills the
    whole process group on timeout (or at the deadline) and always waits
    for it to end."""
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    tmp = tmp_root / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{Path(argv[0]).name} timed out after {timeout} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out


def last_json_line(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("knnpc_bench printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------- oracle

def size_name(quick):
    return "quick" if quick else "full"


def pinned_checksums():
    table = {}
    if EXPECTED.is_file():
        for line in EXPECTED.read_text().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            workload, seed, size, checksum = line.split("\t")
            table[(workload, int(seed), size)] = checksum
    return table


def oracle(binary, build_dir, workload, seed, quick):
    """Expected final-graph checksum: the pinned table, else a cached or
    fresh replay through the serial engine (knnpc_bench --oracle)."""
    pinned = pinned_checksums().get((workload, seed, size_name(quick)))
    if pinned is not None:
        return pinned
    # Both shards workloads replay the same inputs through the same
    # schedule, so they share one replay.
    replay = "shards-local" if workload.startswith("shards-") else workload
    # Cached per binary: a rebuilt binary invalidates every entry.
    stamp = str(binary.stat().st_mtime_ns)
    cache = build_dir / "oracle" / f"{replay}-{seed}-{size_name(quick)}.txt"
    if cache.is_file():
        cached_stamp, checksum = cache.read_text().split()
        if cached_stamp == stamp:
            return checksum
    argv = [str(binary), "--oracle", f"--workload={replay}",
            f"--seed={seed}"] + (["--quick"] if quick else [])
    code, out = run_process(argv, ORACLE_TIMEOUT_S, build_dir / "tmp")
    if code != 0:
        raise RuntimeError(f"oracle for {workload} seed {seed} exited {code}")
    checksum = last_json_line(out)["checksum"]
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(f"{stamp} {checksum}\n")
    return checksum


# ------------------------------------------------------------------ trace

def self_times(trace_path):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover. Returns [(event, self_us)]."""
    events = json.loads(Path(trace_path).read_text())["traceEvents"]
    by_tid = defaultdict(list)
    for e in events:
        # Integer nanoseconds, so back-to-back derived spans never overlap
        # through float rounding.
        start = round(e["ts"] * 1000)
        by_tid[e["tid"]].append((start, start + round(e["dur"] * 1000), e))
    result = []
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        children = defaultdict(list)
        stack = []
        for span in spans:
            while stack and stack[-1][1] <= span[0]:
                stack.pop()
            if stack:
                children[id(stack[-1])].append(span)
            stack.append(span)
        for span in spans:
            lo, hi, e = span
            covered, reach = 0, lo
            for c_lo, c_hi, _ in children[id(span)]:
                start, end = max(c_lo, reach), min(c_hi, hi)
                if end > start:
                    covered += end - start
                    reach = end
            result.append((e, (hi - lo - covered) / 1000))
    return result


def residual_metrics(workload, trace_path):
    """The untimed remainder of a measured iteration: wall time minus the
    derived phase/worker spans and the publish span inside it."""
    residuals = [self_us / 1e6 for e, self_us in self_times(trace_path)
                 if e["name"] == "engine.iteration"
                 and e["args"].get("measured") == 1]
    mean = sum(residuals) / len(residuals) if residuals else 0.0
    sharded = workload.startswith("shards-")
    return {
        "engine.residual_s": {"value": 0.0 if sharded else mean, "unit": "s"},
        "driver.residual_s": {"value": mean if sharded else 0.0, "unit": "s"},
    }


# -------------------------------------------------------------------- run

def run_once(binary, build_dir, workload, seed, seconds, trace, quick):
    """One knnpc_bench process. Returns its result object, with the
    residuals computed from the trace when `trace` is set."""
    expect = oracle(binary, build_dir, workload, seed, quick)
    argv = [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--expect={expect}"]
    if quick:
        argv.append("--quick")
    trace_path = build_dir / "traces" / f"{workload}-{seed}.json"
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        argv.append(f"--trace={trace_path}")
    code, out = run_process(argv, RUN_TIMEOUT_S, build_dir / "tmp")
    result = last_json_line(out)
    result["exit_code"] = code
    if trace:
        result["metrics"].update(residual_metrics(workload, trace_path))
    return result


def result_object(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"knnpc_bench did not report {missing}")
    return {
        "correct": result["failed"] == 0 and result["exit_code"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }


def metric_names(bench, trace):
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def all_workloads(bench):
    return [w["name"] for w in bench["workloads"]] + list(EXTRA_WORKLOADS)


# ------------------------------------------------------------------- sets

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, bench):
    summary = defaultdict(dict)
    by_workload = defaultdict(list)
    for run in runs:
        by_workload[run["workload"], run["traced"]].append(run)
    for (workload, traced), group in by_workload.items():
        for name in metric_names(bench, traced):
            values = [r["metrics"][name]["value"] for r in group]
            q1, med, q3 = quartiles(values)
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "unit": group[0]["metrics"][name]["unit"], "values": values}
    for workload, metrics in summary.items():
        untraced = [r for r in runs
                    if r["workload"] == workload and not r["traced"]]
        traced = [r for r in runs if r["workload"] == workload and r["traced"]]
        if untraced and traced:
            # Traced runs report per-layer metrics only; engine.iter_s_mean
            # is the same iterations' mean wall time in both modes.
            def mean_wall(group):
                return statistics.median(
                    r["metrics"]["engine.iter_s_mean"]["value"] for r in group)
            metrics["trace.overhead_pct"] = {
                "median": 100.0 * (mean_wall(traced) / mean_wall(untraced)
                                   - 1.0),
                "unit": "%"}
    return summary


def print_summary(summary):
    print(f"{'workload':14} {'metric':28} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread%':>8} {'n':>3} unit")
    for workload in sorted(summary):
        for name, s in summary[workload].items():
            if "q1" not in s:
                print(f"{workload:14} {name:28} {s['median']:12.5g}"
                      f"{'':40} {s['unit']}")
                continue
            spread = ((s["q3"] - s["q1"]) / s["median"] * 100
                      if s["median"] else 0.0)
            print(f"{workload:14} {name:28} {s['median']:12.5g} "
                  f"{s['q1']:12.5g} {s['q3']:12.5g} {spread:8.2f} "
                  f"{s['n']:3d} {s['unit']}")


def run_sets(args, bench, binary, build_dir):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = QUICK_SECONDS if args.quick else (args.seconds or
                                                bench["run_seconds"])
    runs, failures = [], 0
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else workloads[::-1]
        for workload in order:
            for traced in ([False, True] if args.trace else [False]):
                result = run_once(binary, build_dir, workload, args.seed,
                                  seconds, traced, args.quick)
                ok = result["failed"] == 0 and result["exit_code"] == 0
                failures += 0 if ok else 1
                log(f"set {s + 1}/{args.sets} {workload:14} "
                    f"{'traced' if traced else 'untraced'}: "
                    f"{'ok' if ok else 'FAILED ' + str(result['failed_checks'])}")
                runs.append({"set": s, "workload": workload, "traced": traced,
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "failed_checks": result["failed_checks"],
                             "metrics": result["metrics"]})
    summary = summarize(runs, bench)
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "sets": args.sets, "seconds": seconds,
             "quick": args.quick, "runs": runs, "summary": summary},
            indent=1) + "\n")
    return failures


def smoke(args, bench, binary, build_dir):
    """Every workload at quick sizes, traced so one run yields both metric
    sets: every BENCHMARK.json metric must appear with its unit."""
    failures = 0
    for workload in all_workloads(bench):
        result = run_once(binary, build_dir, workload, args.seed,
                          QUICK_SECONDS, True, True)
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    failures += 1
                    log(f"{workload}: metric {m['name']} missing or not in "
                        f"{m['unit']}: {got}")
        if result["failed"] or result["exit_code"]:
            failures += 1
            log(f"{workload}: failed checks {result['failed_checks']}")
        log(f"smoke {workload}: attempted {result['attempted']}, "
            f"failed {result['failed']}")
    return failures


# ---------------------------------------------------------------- compare

def compare(base_path, new_path, bench):
    """One row per (end-to-end metric, workload): better, worse, unchanged,
    or unresolved when the base's own spread exceeds the bound."""
    base = json.loads(Path(base_path).read_text())["summary"]
    new = json.loads(Path(new_path).read_text())["summary"]
    worse = 0
    print(f"{'workload':14} {'metric':16} {'base':>11} {'new':>11} "
          f"{'change%':>8} {'spread%':>8} {'bound%':>7} verdict")
    for workload in sorted(set(base) & set(new)):
        for m in bench["end_to_end"]:
            b, n = base[workload].get(m["name"]), new[workload].get(m["name"])
            if b is None or n is None or not b["median"]:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (n["median"] - b["median"]) / b["median"]
            spread = (b["q3"] - b["q1"]) / b["median"]
            strictly_better = all(sign * (x - y) < 0 for x in n["values"]
                                  for y in b["values"])
            # Runs pair up by set; a gain needs at least ten pairs and must
            # win nine tenths of them.
            pairs = list(zip(b["values"], n["values"]))
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            if spread > m["bound"] and not strictly_better:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
            elif (change < -max(spread, 1e-12) and len(pairs) >= 10
                  and wins >= 0.9 * len(pairs)):
                verdict = "better"
            else:
                verdict = "unchanged"
            worse += verdict == "worse"
            print(f"{workload:14} {m['name']:16} {b['median']:11.5g} "
                  f"{n['median']:11.5g} {100 * change:8.2f} "
                  f"{100 * spread:8.2f} {100 * m['bound']:7.1f} {verdict}")
    return worse


def regen_expected(binary, build_dir, bench):
    rows = ["# workload\tseed\tsize\tchecksum — final-graph checksum of the "
            "serial KnnEngine replay (knnpc_bench --oracle); regenerate with "
            "run_bench.py --regen-expected"]
    for workload in all_workloads(bench):
        for seed in PINNED_SEEDS:
            argv = [str(binary), "--oracle", f"--workload={workload}",
                    f"--seed={seed}"]
            code, out = run_process(argv, ORACLE_TIMEOUT_S, build_dir / "tmp")
            if code != 0:
                raise RuntimeError(f"oracle for {workload} exited {code}")
            rows.append(f"{workload}\t{seed}\tfull\t"
                        f"{last_json_line(out)['checksum']}")
    EXPECTED.write_text("\n".join(rows) + "\n")


# ------------------------------------------------------------------- main

def main():
    global deadline
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload, print its result object")
    p.add_argument("--workloads", help="comma-separated workloads for sets")
    p.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    p.add_argument("--seconds", type=float,
                   help="measuring window per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer metrics from a traced run")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out", help="write every run and the summary as JSON")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--quick", action="store_true",
                   help="smoke test at quick sizes")
    p.add_argument("--regen-expected", action="store_true")
    p.add_argument("--build-dir", type=Path,
                   default=ROOT / ".bench_build" / "harness")
    args = p.parse_args()

    try:
        bench = load_benchmark()
        if args.compare:
            return 1 if compare(*args.compare, bench) else 0
        build_dir = args.build_dir.resolve()
        binary = build(build_dir)
        if args.regen_expected:
            regen_expected(binary, build_dir, bench)
            return 0
        if args.workload:
            deadline = time.monotonic() + SINGLE_RUN_BUDGET_S
            seconds = args.seconds or bench["run_seconds"]
            result = run_once(binary, build_dir, args.workload, args.seed,
                              QUICK_SECONDS if args.quick else seconds,
                              bool(args.trace), args.quick)
            out = result_object(result, metric_names(bench, args.trace))
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        if args.quick and args.sets == 1:
            return 1 if smoke(args, bench, binary, build_dir) else 0
        return 1 if run_sets(args, bench, binary, build_dir) else 0
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log(f"run_bench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
