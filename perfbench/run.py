"""hyperlift's benchmark command.

    python3 perfbench/run.py --workload adapt-seq-all --seed 1 --seconds 15 --trace 0

Runs one workload in this process against the sources in ./src, prints every
metric by name with its unit and sample count, checks the outputs, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run first
repeats the untraced pass, then traces a second pass and reports per-layer
metrics, including tracing overhead. Results, the environment manifest and
the spans go to .perfbench/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("adapt-seq-all", "adapt-lora-last1", "pretrain-full", "eval-vqa")

# The printed, per-workload names of the end-to-end metrics.
TRAIN_NAMES = {"items_per_s": ("train_samples_per_s", "samples/s"),
               "call_ms_p50": ("step_ms_p50", "ms"), "call_ms_p90": ("step_ms_p90", "ms")}
EVAL_NAMES = {"items_per_s": ("eval_items_per_s", "items/s"),
              "call_ms_p50": ("predict_ms_p50", "ms"), "call_ms_p90": ("predict_ms_p90", "ms")}


def pin_blas_threads() -> int:
    """Run BLAS on one thread (at most nproc). On a shared 2-core host one
    thread gave steadier step times than two at no loss in speed, because a
    two-thread GEMM waits for whichever core is slowed by other tenants.
    Must run before numpy is imported. Returns nproc."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_runtime() -> dict:
    """Thread count and build string reported by the OpenBLAS numpy loaded."""
    import numpy as np

    info = {"threads": None, "config": None}
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update(name=build.get("name"), version=build.get("version"))
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info.update(threads=threads(), config=config().decode())
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/**/*.py (paths and contents): identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_runtime(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few steps and items, for the benchmark's own tests")
    return p.parse_args(argv)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_pass(args, res, e2e, checks_ok: bool):
    """Print the end-to-end metrics under their per-workload names, with units
    and sample counts."""
    evalw = args.workload == "eval-vqa"
    names = EVAL_NAMES if evalw else TRAIN_NAMES
    n_calls = len(res.call_s)
    counted = f"n={n_calls} predict_answer calls" if evalw else f"n={n_calls} steps"
    lines = [("setup_s", e2e["setup_s"][0], "s", f"median of n={len(res.setup_s)} set-ups")]
    items_name, items_unit = names["items_per_s"]
    lines.append((items_name, e2e["items_per_s"][0], items_unit,
                  f"n={res.items} {'items in batched evaluate calls' if evalw else 'samples'}"))
    for key in ("call_ms_p50", "call_ms_p90"):
        lines.append((names[key][0], e2e[key][0], names[key][1], counted))
    for qname, qval in res.quality.items():
        lines.append((qname, qval, "fraction" if qname == "vqa_accuracy" else "nats",
                      f"over n={res.items} items" if evalw else f"after {res.attempted} steps"))
    lines.append(("peak_rss_mb", e2e["peak_rss_mb"][0], "MB", "process peak resident set"))
    lines.append(("failed_frac", res.failed / res.attempted, "failed/attempted", f"{res.failed}/{res.attempted}"))
    for name, value, unit, note in lines:
        print(f"{name:<22} {fmt(value):>14} {unit:<17} {note}")
    for name, ok in res.checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    print(f"correct: {checks_ok}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperlift" / "__init__.py").is_file():
        print(f"perfbench: no hyperlift sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import hyperlift

    if Path(hyperlift.__file__).resolve().parent != SRC / "hyperlift":
        print(f"perfbench: imported hyperlift from {hyperlift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    size = workloads.SIZES[args.size]
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args, nproc)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"size={args.size} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup_reps = size.setup_reps if args.trace == 0 else 1
    res = workloads.run_pass(args.workload, args.seed, args.seconds, size, str(OUT_DIR), setup_reps)
    e2e = workloads.end_to_end(res, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    correct = all(res.checks.values()) and res.failed == 0
    attempted, failed = res.attempted, res.failed
    report_pass(args, res, e2e, correct)
    metrics = e2e
    record = {"env": env, "untraced": {k: v[0] for k, v in e2e.items()},
              "quality": res.quality, "checks": res.checks}

    if args.trace == 1:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = workloads.run_pass(args.workload, args.seed, args.seconds, size, str(OUT_DIR), 1, tracer)
        kinds = ("evaluate", "predict") if args.workload == "eval-vqa" else ("step",)
        metrics = tracer.per_layer(kinds, traced.units)
        t_e2e = workloads.end_to_end(traced, 0.0)
        metrics["trace.overhead_call_ms_p50"] = (t_e2e["call_ms_p50"][0] / e2e["call_ms_p50"][0] - 1.0, "fraction")
        metrics["trace.overhead_items_per_s"] = (e2e["items_per_s"][0] / t_e2e["items_per_s"][0] - 1.0, "fraction")
        correct = correct and all(traced.checks.values()) and traced.failed == 0
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        if traced.quality != res.quality:
            print(f"check traced_pass_repeats_untraced: FAIL ({traced.quality} != {res.quality})")
            correct = False
        unit = "step" if kinds == ("step",) else "scored VQA item"
        print(f"per-layer metrics, per {unit} over n={traced.units} units "
              f"(set-up metrics per set-up); spans in .perfbench/")
        for name, (value, u) in sorted(metrics.items()):
            print(f"{name:<40} {fmt(value):>14} {u}")
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        record["traced"] = {k: v[0] for k, v in t_e2e.items()}

    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
