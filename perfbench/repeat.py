"""Repeatability check: run the benchmark in sets of runs and compare them.

    python3 perfbench/repeat.py --runs 10 --sets 2

Every run gets its own seed.  For each workload and end-to-end metric the
command prints each set's median, quartiles and spread (quartile distance
over the median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them), and whether the sets agree within the bounds of ``BENCHMARK.json``:
every spread but that of ``setup_s`` within the metric's bound, no later
set's median worse than the first set's by more than the bound, and the
same failed share in every run of a workload.  The report is also written
to ``perfbench/out/repeat-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                r = results[w][s][-1]
                print(f"set {s + 1} {w} seed {seed}: attempted {r['attempted']} failed {r['failed']}",
                      file=sys.stderr, flush=True)
                seed += 1

    report = {"runs": args.runs, "sets": args.sets, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    agree = True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        ok_share = len(shares) == 1 and all(r["correct"] for runs in results[w] for r in runs)
        agree &= ok_share
        print(f"\n{w}: failed share {sorted(shares)} {'same' if ok_share else 'DIFFERS'}")
        print(f"  {'metric':26s} {'bound':>6s}  " + "  ".join(
            f"{'set ' + str(s + 1) + ' median [q1, q3] spread':>46s}" for s in range(args.sets)))
        rows = {}
        for name, m in bounds.items():
            sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = max(sign * (x["median"] - sets[0]["median"]) / sets[0]["median"] for x in sets)
            ok = worse <= m["bound"] and (
                name == "setup_s" or all(x["spread"] <= m["bound"] for x in sets))
            agree &= ok
            rows[name] = {"bound": m["bound"], "sets": sets, "worst_shift": worse, "agree": ok}
            cells = "  ".join(f"{x['median']:12.6g} [{x['q1']:.6g}, {x['q3']:.6g}] {x['spread']:6.3f}"
                              for x in sets)
            print(f"  {name:26s} {m['bound']:6.3f}  {cells}  shift {worse:+.3f} "
                  f"{'ok' if ok else 'OUTSIDE'}")
        report["workloads"][w] = {"failed_shares": sorted(shares), "metrics": rows,
                                  "runs": results[w]}
    report["agree"] = agree
    print(f"\nall sets agree within bounds: {agree}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(report, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
