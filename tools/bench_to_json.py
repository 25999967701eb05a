#!/usr/bin/env python3
"""Merge `bench_* --json` outputs into one bench_results.json and emit a
markdown summary for CI.

The three perf-tracked benches (bench_table1, bench_phases, bench_threads)
print a single JSON object on stdout when run with --json. The CI bench job
captures each into a file, then runs:

    tools/bench_to_json.py --out bench_results.json t1.json ph.json th.json

which writes the merged machine-readable record (keyed by each bench's
"bench" field) and prints a markdown summary to stdout — CI appends that to
$GITHUB_STEP_SUMMARY so hot-path regressions are visible on every PR.

Only the standard library is used.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if "bench" not in data:
        raise ValueError(f"{path}: missing 'bench' key (not a --json dump?)")
    return data


def summarize_table1(d, out):
    out.append("### bench_table1 — PI-graph load/unload operations")
    out.append("")
    out.append("| Dataset | Nodes | Seq | High-Low | Low-High | LH/Seq |")
    out.append("|---|---:|---:|---:|---:|---:|")
    for row in d.get("datasets", []):
        out.append(
            "| {name} | {nodes} | {seq} | {high_low} | {low_high} "
            "| {lh:.1%} |".format(lh=row["lh_over_seq"], **row))
    out.append("")


def summarize_phases(d, out):
    out.append(
        "### bench_phases — five-phase breakdown "
        f"(n={d.get('users')}, k={d.get('k')}, m={d.get('partitions')})")
    out.append("")
    out.append("| iter | P1 | P2 | P3 | P4 (score/merge) | P5 | total s "
               "| change rate |")
    out.append("|---:|---:|---:|---:|---:|---:|---:|---:|")
    for it in d.get("iterations", []):
        out.append(
            "| {iter} | {partition_s:.3f} | {hash_s:.3f} | {pi_graph_s:.3f} "
            "| {knn_s:.3f} ({knn_score_s:.3f}/{knn_merge_s:.3f}) "
            "| {update_s:.3f} | {total_s:.3f} | {change_rate:.4f} |".format(
                **it))
    cum = d.get("cumulative")
    if cum:
        out.append("")
        out.append(
            "cumulative: total **{total_s:.3f} s** "
            "(P4 knn {knn_s:.3f} s)".format(**cum))
    kernels = d.get("kernels", [])
    if kernels:
        out.append("")
        out.append(
            "#### Phase-4 kernel comparison "
            f"(host backend: {d.get('kernel_backend', '?')}, "
            f"{kernels[0].get('iters', '?')} iters each)")
        out.append("")
        out.append("| kernel | backend | knn s | score s | speedup "
                   "| checksum |")
        out.append("|---|---|---:|---:|---:|---|")
        for row in kernels:
            out.append(
                "| {name} | {backend} | {knn_s:.3f} | {knn_score_s:.3f} "
                "| {speedup:.2f}x | `{checksum}` |".format(**row))
    out.append("")


def summarize_threads(d, out):
    out.append(
        "### bench_threads — phase-4 thread sweep "
        f"(n={d.get('users')}, k={d.get('k')})")
    out.append("")
    out.append("| threads | phase4 s | score s | merge s | speedup |")
    out.append("|---:|---:|---:|---:|---:|")
    for row in d.get("results", []):
        label = (f"auto({row['threads_used']})"
                 if row["threads"] == 0 else str(row["threads"]))
        out.append(
            "| {label} | {phase4_s:.3f} | {score_s:.3f} | {merge_s:.3f} "
            "| {speedup:.2f}x |".format(label=label, **row))
    out.append("")


def summarize_shards(d, out):
    out.append(
        "### bench_shards — sharded-driver sweep "
        f"(n={d.get('users')}, k={d.get('k')}, iters={d.get('iters')})")
    out.append("")
    out.append("| shards | threads/shard | wall s "
               "| persistent wall s | cpu s | speedup | max shard wall s "
               "| identical | persistent identical "
               "| round trips | tx MiB | rx MiB | profile reads |")
    out.append("|---:|---:|---:|---:|---:|---:|---:|---:|---:"
               "|---:|---:|---:|---:|")

    def optional(row, key, fmt="{:.3f}"):
        return fmt.format(row[key]) if key in row else "-"

    def optional_flag(row, key):
        if key not in row:
            return "-"
        return "yes" if row[key] else "**NO**"

    def optional_mib(row, key):
        if key not in row:
            return "-"
        return "{:.2f}".format(row[key] / (1024.0 * 1024.0))

    for row in d.get("results", []):
        max_wall = max(row.get("per_shard_wall_s", [0.0]) or [0.0])
        out.append(
            "| {shards} | {threads_per_shard} | {wall_s:.3f} "
            "| {pers_wall} | {cpu_s:.3f} | {speedup:.2f}x "
            "| {max_wall:.3f} | {ident} | {pers_ident} "
            "| {round_trips} | {tx_mib} | {rx_mib} | {prof_reads} "
            "|".format(
                max_wall=max_wall,
                ident="yes" if row.get("identical") else "**NO**",
                pers_wall=optional(row, "persistent_wall_s"),
                pers_ident=optional_flag(row, "persistent_identical"),
                round_trips=optional(row, "persistent_round_trips", "{}"),
                tx_mib=optional_mib(row, "persistent_bytes_tx"),
                rx_mib=optional_mib(row, "persistent_bytes_rx"),
                prof_reads=optional(row, "persistent_profile_reads", "{}"),
                **row))
    out.append("")


def summarize_serve(d, out):
    r = d.get("results", {})
    out.append(
        "### bench_serve — online serving under a churning engine "
        f"(n={d.get('users')}, k={d.get('k')}, "
        f"threads={d.get('query_threads')}, search_l={d.get('search_l')})")
    out.append("")
    out.append("| path | queries | p50 ms | p99 ms | QPS |")
    out.append("|---|---:|---:|---:|---:|")
    for path in ("topk", "adhoc"):
        row = r.get(path, {})
        out.append(
            "| {path} | {queries} | {p50_ms:.4f} | {p99_ms:.4f} "
            "| {qps:.0f} |".format(path=path, **row))
    out.append("")
    out.append(
        "recall@{k}: **{recall:.4f}** ({rq} queries) · "
        "indexed top_k exact: {exact} · "
        "{snaps} snapshots published".format(
            k=d.get("k"), recall=r.get("recall", 0.0),
            rq=r.get("recall_queries"),
            exact="yes" if r.get("topk_exact") else "**NO**",
            snaps=r.get("snapshots_published")))
    out.append("")


def summarize_workloads(d, out):
    out.append(
        "### bench_workloads — workload-zoo differential sweep "
        f"(n={d.get('users')}, items={d.get('items')}, k={d.get('k')}, "
        f"iters={d.get('iters')})")
    out.append("")
    out.append("| workload | serial s | threaded s | shard s "
               "| persistent s | modes identical | grid cells | grid identical |")
    out.append("|---|---:|---:|---:|---:|---:|---:|---:|")
    for row in d.get("results", []):
        walls = {m["mode"]: m["wall_s"] for m in row.get("modes", [])}
        out.append(
            "| {name} | {serial:.3f} | {threaded:.3f} | {shard:.3f} "
            "| {persistent:.3f} | {ident} | {cells} "
            "| {grid_ident} |".format(
                name=row["workload"],
                serial=walls.get("serial", 0.0),
                threaded=walls.get("threaded", 0.0),
                shard=walls.get("shard-thread", 0.0),
                persistent=walls.get("shard-persistent", 0.0),
                ident="yes" if row.get("identical") else "**NO**",
                cells=len(row.get("grid", [])),
                grid_ident="yes" if row.get("grid_identical") else "**NO**"))
    out.append("")


SUMMARIZERS = {
    "table1": summarize_table1,
    "phases": summarize_phases,
    "threads": summarize_threads,
    "shards": summarize_shards,
    "serve": summarize_serve,
    "workloads": summarize_workloads,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+",
                        help="per-bench --json output files")
    parser.add_argument("--out", default="bench_results.json",
                        help="merged JSON output path")
    parser.add_argument("--no-summary", action="store_true",
                        help="skip the markdown summary on stdout")
    args = parser.parse_args()

    merged = {"benches": {}}
    for path in args.inputs:
        data = load(path)
        name = data["bench"]
        if name in merged["benches"]:
            raise ValueError(f"duplicate bench '{name}' from {path}")
        merged["benches"][name] = data

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")

    if not args.no_summary:
        lines = ["## Benchmark results", ""]
        for name, data in merged["benches"].items():
            summarizer = SUMMARIZERS.get(name)
            if summarizer:
                summarizer(data, lines)
            else:
                lines.append(f"### {name}")
                lines.append("```json")
                lines.append(json.dumps(data, indent=2))
                lines.append("```")
                lines.append("")
        try:
            print("\n".join(lines))
        except BrokenPipeError:  # e.g. piped into head; the .json is written
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
