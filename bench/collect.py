"""Run the benchmark over several seeds and summarise it into one JSON file.

    python3 bench/collect.py --seeds 1-10 --out bench/results/NAME.json [--workloads a,b]

For each workload: one untraced run per seed (median, quartiles and spread,
the distance between the quartiles as a share of the median, for every
end-to-end metric, plus ``epoch_s``/``train_pos_per_s`` of the trained
workloads), then one traced run on the first seed for the per-layer metrics.
Runs go one after another, each in a fresh process, exactly as
``BENCHMARK.json``'s command.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, seconds, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        records = [run(spec, workload, s, seconds, 0) for s in seeds]
        traced = run(spec, workload, seeds[0], seconds, 1)
        metrics = {m["name"]: summarise([r["result"]["metrics"][m["name"]]["value"] for r in records])
                   for m in spec["end_to_end"]}
        if records[0]["training"]["epoch_samples"]:
            for name in ("epoch_s", "train_pos_per_s"):
                metrics[name] = summarise([r["training"][name] for r in records])
        summary["workloads"][workload] = {
            "end_to_end": metrics,
            "epoch_samples_per_run": records[0]["training"]["epoch_samples"],
            "flows_per_run": [r["flows"] for r in records],
            "checks": {"attempted": sum(r["result"]["attempted"] for r in records),
                       "failed": sum(r["result"]["failed"] for r in records)},
            "input": {str(r["seed"]): r["input"] for r in records},
            "epoch_csv_sha256": {str(r["seed"]): r["epoch_csv_sha256"] for r in records},
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        summary["machine"] = records[0]["machine"]
        print(f"{workload}: " + ", ".join(
            f"{k} {v['median']:.5g} (spread {v['spread']:.3f})" for k, v in metrics.items()), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
