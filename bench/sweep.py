"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workload beam60 --seeds 1-10
    python3 bench/sweep.py --workload beam60 --seeds 1-10 --checkout ../parent --checkout .

Runs go one at a time, each in a fresh interpreter. With several checkouts,
every seed runs once in each, and the order alternates from seed to seed. For
each checkout and metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)``, and their distance as a share of the
median, then the failed share of the operations; with two checkouts, how many
seeds the second read lower and higher than the first on each metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout root to run in (repeatable); default: this one")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [HERE.parent])]

    results = {str(c): [] for c in checkouts}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for checkout in order:
            r = run_once(checkout, args.workload, seed, args.seconds, args.trace)
            results[str(checkout)].append(r)
            print(f"{checkout} seed {seed}: {json.dumps(r)}", flush=True)

    report = {}
    for checkout, rs in results.items():
        summary = summarize(rs)
        attempted = sum(r["attempted"] for r in rs)
        failed = sum(r["failed"] for r in rs)
        report[checkout] = {"summary": summary, "attempted": attempted, "failed": failed,
                            "correct": all(r["correct"] for r in rs)}
        print(f"\n{checkout} ({args.workload}, {len(rs)} runs, "
              f"failed {failed}/{attempted}, correct {report[checkout]['correct']})")
        for name, s in summary.items():
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['spread']:.2f}%")
    if len(checkouts) == 2:
        base, change = (results[str(c)] for c in checkouts)
        print(f"\npairs won by {checkouts[1]} over {checkouts[0]}:")
        for name in base[0]["metrics"]:
            pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                     for b, c in zip(base, change)]
            print(f"  {name:36s} {sum(c < b for b, c in pairs)}/{len(pairs)} lower, "
                  f"{sum(c > b for b, c in pairs)}/{len(pairs)} higher")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"sweep-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
