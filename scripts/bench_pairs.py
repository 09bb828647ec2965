"""Run alternating parent/change pairs of perfbench workloads and write the
paired medians to BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label my-change \\
        --what "one line on what the change does" --seed 31 --seconds 20 \\
        --pairs eval-vqa=10 adapt-seq-all=2 adapt-lora-last1=2 pretrain-full=2

`--parent` and `--change` are checkouts that each hold `src/` and
`perfbench/`. Each `--pairs` entry must name a workload of the change's
BENCHMARK.json, no workload twice, and at least 2 pairs; a bad entry exits 2
before any run.
Every run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` in its checkout, one at a time. Pair k runs the parent
first when k is even. Next to the benchmark's end-to-end metrics, each run
records `ru_minflt`: the minor page faults of that finished run, read through
RUSAGE_CHILDREN. Per metric the file gives both sides' runs and medians, the
pairs the change won (ties count for neither side) and the distance between
the parent's quartiles. The file is written to the current directory. Each
side's `commit` is the HEAD that perfbench reads in its checkout (null outside
git); `source_sha256` identifies the sources that were measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Recorded next to the benchmark's end-to-end metrics; fewer is better.
FAULTS = "ru_minflt"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its end-to-end metrics, minor faults,
    failed count, quality prints and environment manifest."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((checkout / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json").read_text())
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    metrics[FAULTS] = faults
    return {"metrics": metrics, "failed": summary["failed"], "quality": result["quality"],
            "env": result["env"]}


def _quality(runs: list[dict]) -> dict:
    """Each quality print, as one value when every run repeats it exactly."""
    out = {}
    for name in runs[0]["quality"]:
        values = [r["quality"][name] for r in runs]
        out[name] = values[0] if len(set(values)) == 1 else values
    return out


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Paired summary of one workload; `better` maps each metric to
    "lower" or "higher"."""
    runs, median = {}, {side: {} for side in SIDES}
    for name, direction in better.items():
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        sign = 1 if direction == "higher" else -1
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        runs[name] = {
            "parent": p,
            "change": c,
            "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "parent_iqr": round(q3 - q1, 4),
        }
        median["parent"][name] = round(statistics.median(p), 4)
        median["change"][name] = round(statistics.median(c), 4)
    return {
        "pairs": len(parent),
        "failed": {"parent": sum(r["failed"] for r in parent),
                   "change": sum(r["failed"] for r in change)},
        "median": median,
        "quality": {"parent": _quality(parent), "change": _quality(change)},
        "runs": runs,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--what", required=True, help="one line on what the change does")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    args = p.parse_args(argv)
    path = args.change / "BENCHMARK.json"
    try:
        args.spec = json.loads(path.read_text())
    except OSError as exc:
        p.error(f"cannot read {path}: {exc.strerror}")
    known = [w["name"] for w in args.spec["workloads"]]
    pairs = {}
    for item in args.pairs:
        workload, _, n = item.partition("=")
        if workload not in known or not n.isdecimal():
            p.error(f"--pairs {item!r}: expected WORKLOAD=N, with WORKLOAD one of {known}")
        if workload in pairs:
            p.error(f"--pairs names {workload} twice")
        pairs[workload] = int(n)
    if any(n < 2 for n in pairs.values()):
        p.error("each workload needs at least 2 pairs")
    args.pairs = pairs
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {m["name"]: m["better"] for m in args.spec["end_to_end"]}
    better[FAULTS] = "lower"
    workloads, env = {}, {}
    for workload, n_pairs in args.pairs.items():
        runs = {side: [] for side in SIDES}
        for k in range(n_pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], workload, args.seed, args.seconds)
                runs[side].append(run)
                env[side] = run["env"]
                print(f"{workload} pair {k} {side}: " + json.dumps(run["metrics"]), flush=True)
        workloads[workload] = summarise(runs["parent"], runs["change"], better)
    e = env["change"]
    bench = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": e["blas"]["threads"],
        "blas": e["blas"]["config"],
        "host": f"{e['nproc']}-core {e['machine']}; python {e['python']}, "
                f"numpy {e['numpy']}, scipy {e['scipy']}",
        **{side: {"commit": env[side]["git_commit"], "source_sha256": env[side]["source_sha256"]}
           for side in SIDES},
        "order": "pairs alternate which side runs first: pair k runs parent first when k is even",
        "faults": f"{FAULTS}: minor page faults of each run, read through RUSAGE_CHILDREN",
        "workloads": workloads,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
