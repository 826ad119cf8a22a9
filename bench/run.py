"""The benchmark's one command.

    python3 bench/run.py --workload ml1m-nbpo-ss --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It builds nothing: the package is imported
from ``src/`` of the same checkout (and the command fails if it is not
there). Inputs are generated from ``--seed`` with numpy only, in a child
process, before anything is timed. Then the workload is set up ``SETUPS``
times, and its main flow runs with the same seed until ``--seconds`` have
passed (at least ``MIN_FLOWS`` times). The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` count the output
checks; ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). The lines before it repeat every metric
by name and unit, with the input shape, the check results, the epoch CSV
digests and the machine facts. The full result, and in a traced run every
span, are written under ``.bench_out/``.

In a traced run the flows alternate: untraced, traced, untraced, ... The
per-layer metrics come from the traced flows, ``trace.overhead`` is the
median traced flow time over the median untraced one, and ``epoch_s`` and
``train_pos_per_s`` come from the untraced flows.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread, so a run is one single-threaded
# process whatever the machine's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUPS = 5
MIN_FLOWS = 2
EPOCHS = {"bench": 3, "full": 3, "tiny": 2}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rank_users_per_s": "users/s",
    "peak_rss_mb": "MB",
    "test_ndcg_at_10": "ndcg",
}
# per-layer metrics of the traced run that are not span totals (see layers.py)
FROM_FLOWS = {"epoch_s": "s", "train_pos_per_s": "pos/s", "trace.overhead": "ratio"}


def import_package():
    """Import noisyrec from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import noisyrec
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import noisyrec from {SRC}: {exc}")
    if not os.path.abspath(noisyrec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: noisyrec was imported from {noisyrec.__file__}, not {SRC}")
    return noisyrec


def git_commit():
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "single_process": True,
        "commit": git_commit(),
    }


def input_shape(dataset) -> dict:
    import numpy as np
    pairs = [p for t in (dataset.train, dataset.validation, dataset.test) for p in t.positives]
    items = np.fromiter((i for _, i in pairs), dtype=np.int64, count=len(pairs))
    degree = np.bincount(items, minlength=dataset.train.N)
    M, N = dataset.train.M, dataset.train.N
    return {
        "M": M, "N": N, "positives": len(pairs), "train_positives": len(dataset.train),
        "density": len(pairs) / (M * N),
        "item_degree_median": float(np.median(degree)), "item_degree_max": int(degree.max()),
    }


def median(values):
    import numpy as np
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(setups, flows) -> dict:
    untraced = [f for f in flows if not f.traced]
    evals = [e for f in untraced for e in f.evals]
    return {
        "setup_s": median(setups),
        "run_s": median([f.wall for f in untraced]),
        "rank_users_per_s": sum(e.report.n_users_evaluated for e in evals) / sum(e.seconds for e in evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_ndcg_at_10": flows[0].ndcg10,
    }


def training_rates(flows) -> dict:
    """epoch_s and train_pos_per_s over the untraced flows (0 without SGD)."""
    untraced = [f for f in flows if not f.traced]
    epochs = [e for f in untraced for e in f.epochs]
    sgd = sum(f.sgd_seconds for f in untraced)
    return {
        "epoch_s": median(epochs),
        "epoch_samples": len(epochs),
        "train_pos_per_s": sum(f.train_positives for f in untraced) / sgd if sgd else 0.0,
    }


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description="noisyrec benchmark: one workload, one seed")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget for the main flows")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(EPOCHS), default="bench",
                   help="input size: bench (default), tiny (smoke test), full (ML-1M shape)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import layers
    import workloads as wl
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tr = Tracer()
    try:
        data = os.path.join(work, "data")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(args.seed), "--out", data,
             "--size", args.size, "--only", workload.data],
            check=True,
        )
        ctx = wl.Context(work=work, data=data, seed=args.seed, epochs=EPOCHS[args.size])
        ctx.spec = wl.spec_for(workload.name, ctx)
        if args.trace:
            layers.install(tr)
        probe = wl.PhaseProbe(tr)

        setups = []
        for k in range(SETUPS):
            tr.begin_run(f"setup{k}", active=bool(args.trace))
            t0 = time.perf_counter()
            workload.setup(ctx, k)
            setups.append(time.perf_counter() - t0)
            tr.end_run()

        flows = []
        start = time.perf_counter()
        while True:
            j = len(flows)
            traced = bool(args.trace) and j % 2 == 1
            tr.begin_run(f"flow{j}", active=traced)
            flows.append(wl.run_flow(workload, ctx, probe, j, traced))
            tr.end_run()
            if len(flows) >= MIN_FLOWS and time.perf_counter() - start >= args.seconds:
                break
        tr.unwrap_all()

        checks = wl.check_flows(workload, ctx, flows, args.seed)
        e2e = end_to_end(setups, flows)
        rates = training_rates(flows)
        if args.trace:
            runs = {
                layers.SETUP: [f"setup{k}" for k in range(SETUPS)],
                layers.FLOW: [f"flow{j}" for j, f in enumerate(flows) if f.traced],
            }
            metrics = layers.metrics(tr, runs)
            metrics["epoch_s"] = rates["epoch_s"]
            metrics["train_pos_per_s"] = rates["train_pos_per_s"]
            metrics["trace.overhead"] = (
                median([f.wall for f in flows if f.traced]) / median([f.wall for f in flows if not f.traced]))
            units = {**{layer.name: layer.unit for layer in layers.PER_LAYER}, **FROM_FLOWS}
            tr.dump(os.path.join(out_dir, f"{tag}.spans.jsonl"))
        else:
            metrics = e2e
            units = END_TO_END
        shape = input_shape(ctx.dataset)
        if workload.data == "amazon":
            with open(ctx.spec.raw_path, encoding="utf-8") as fh:
                shape["raw_rows"] = sum(1 for _ in fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    failed = [name for name, ok in checks if not ok]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "setups": SETUPS, "flows": len(flows),
        "traced_flows": sum(f.traced for f in flows), "input": shape, "machine": machine_facts(),
        "setup_times_s": setups, "flow_times_s": [f.wall for f in flows],
        "end_to_end": e2e, "training": rates, "failed_checks": failed,
        "epoch_csv_sha256": sorted({hashlib.sha256(f.csv).hexdigest() for f in flows if f.csv is not None}),
        "result": result,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {workload.name} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{SETUPS} set-ups, {len(flows)} flows ({record['traced_flows']} traced)")
    print("input " + " ".join(f"{k}={v}" for k, v in shape.items()))
    print("machine " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for name, value in e2e.items():
        print(f"end_to_end {name} {value:.6g} {END_TO_END[name]}")
    if workload.trained:
        print(f"end_to_end epoch_s {rates['epoch_s']:.6g} s (median of {rates['epoch_samples']} epochs)")
        print(f"end_to_end train_pos_per_s {rates['train_pos_per_s']:.6g} pos/s")
    if args.trace:
        for name, value in metrics.items():
            print(f"per_layer {name} {value:.6g} {units[name]}")
    for digest in record["epoch_csv_sha256"]:
        print(f"epoch_csv_sha256 {digest}")
    print(f"checks {len(checks)} attempted, {len(failed)} failed" + (f": {', '.join(failed)}" if failed else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
