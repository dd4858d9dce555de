"""Run every workload through run.py and summarise.

Usage (from the repository root):

    python3 perfbench/report.py [--seeds 1,2,3] [--seconds S] [--out FILE]

For each workload it makes one untraced run per seed and one traced run on
the first seed, with exactly the command BENCHMARK.json names.  It prints
setup_s, wall_s, peak_rss_mb and fail_frac per workload (median over
seeds, with the quartile spread as a share of the median), the per-layer
table, and the self time per module, and says whether that split matches
the workload's rationale.  It exits 1 if a run fails, a correctness check
misses, or a metric of BENCHMARK.json is not printed with its unit, so
``--seconds 1`` doubles as the smoke test.  ``--out`` writes the summary
as JSON (the committed baseline is ``perfbench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Modules expected to dominate each workload's traced pass.
EXPECTED_SPLIT = {"sweep": ("ode", "dynamics"), "fit": ("ode", "dynamics"),
                  "tomo": ("tomography", "linalg", "timebin")}


def run_once(bench: dict, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict, list[str]]:
    """Result line, run record and the problems found in them."""
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    tag = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        return {}, {}, [f"{tag}: exit {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads((BENCH / ".run" / f"record-{workload}-{seed}-trace"
                         f"{trace}.json").read_text())
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{tag}: {result['failed']} of {result['attempted']}"
                        f" operations failed; {record['errors']}")
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    for m in listed:
        got = result["metrics"].get(m["name"])
        printed = any(line.strip().startswith(f"{m['name']} = ")
                      and line.rstrip().endswith(f" {m['unit']}")
                      for line in lines[:-1])
        if (got is None or got["unit"] != m["unit"]
                or not isinstance(got["value"], (int, float)) or not printed):
            problems.append(f"{tag}: metric {m['name']} [{m['unit']}] "
                            f"missing or malformed")
    if not any(line.strip().startswith("fail_frac = ") for line in lines):
        problems.append(f"{tag}: fail_frac not printed")
    return result, record, problems


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(bench: dict, workload: str, seeds: list[int],
              seconds: float) -> tuple[dict, list[str]]:
    problems, e2e, fail_fracs = [], {}, []
    fingerprints = []
    for seed in seeds:
        result, record, found = run_once(bench, workload, seed, seconds, 0)
        problems += found
        if not result:
            continue
        for name, m in result["metrics"].items():
            e2e.setdefault(name, []).append(m["value"])
        fail_fracs.append(result["failed"] / result["attempted"])
        fingerprints.append(record["passes"][-1]["fingerprint"])
    traced, record, found = run_once(bench, workload, seeds[0], seconds, 1)
    problems += found
    split = {}
    if traced:
        splits = [p["split"] for p in record["passes"] if p["traced"]]
        split = {mod: statistics.median(s.get(mod, 0.0) for s in splits)
                 for mod in sorted({k for s in splits for k in s})}
    total = sum(split.values()) or 1.0
    dominant = sum(split.get(mod, 0.0) for mod in EXPECTED_SPLIT[workload])
    why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
    summary = {
        "why": why,
        "env": record.get("env", {}),
        "seeds": seeds,
        "end_to_end": {
            name: {"median": statistics.median(v), "spread": spread(v),
                   "values": v}
            for name, v in e2e.items()},
        "fail_frac": max(fail_fracs) if fail_fracs else None,
        "fingerprints": fingerprints,
        "per_layer": {k: v["value"] for k, v in
                      traced.get("metrics", {}).items()},
        "absent": record.get("absent", []),
        "self_s_by_module": split,
        "expected_dominant": list(EXPECTED_SPLIT[workload]),
        "dominant_share": dominant / total,
        "split_agrees": dominant / total > 0.5,
    }
    return summary, problems


def print_summary(bench: dict, summaries: dict) -> None:
    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print("end to end (median over seeds; spread = quartile distance / "
          "median; bound)")
    for w, s in summaries.items():
        for name, v in s["end_to_end"].items():
            sp = v["spread"]
            sp_txt = "n/a" if sp is None else f"{sp:.4f}"
            print(f"  {w:6s} {name} = {v['median']:.6g} {units[name]}  "
                  f"spread {sp_txt}  bound {bounds[name]}")
        print(f"  {w:6s} fail_frac = {s['fail_frac']}")
        print(f"  {w:6s} fingerprint: {json.dumps(s['fingerprints'][:1])}")
    names = [m["name"] for m in bench["per_layer"]]
    print("per layer (traced run, first seed)")
    print(f"  {'metric':40s} " + " ".join(f"{w:>12s}" for w in summaries))
    for name in names:
        print(f"  {name + ' [' + units[name] + ']':40s} " + " ".join(
            f"{s['per_layer'].get(name, float('nan')):12.5g}"
            for s in summaries.values()))
    print("self time by module in the traced pass (s)")
    for w, s in summaries.items():
        parts = ", ".join(f"{k} {v:.3f}" for k, v in
                          s["self_s_by_module"].items())
        verdict = "agrees" if s["split_agrees"] else "DISAGREES"
        print(f"  {w:6s} {parts}")
        print(f"  {w:6s} {'+'.join(s['expected_dominant'])} share "
              f"{s['dominant_share']:.1%}: split {verdict} with the rationale")
        if s["absent"]:
            print(f"  {w:6s} absent: {', '.join(s['absent'])}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    summaries, problems = {}, []
    for w in workloads.WORKLOADS:
        summaries[w], found = summarise(bench, w, seeds, args.seconds)
        problems += found
    print_summary(bench, summaries)
    if args.out:
        env = next((s["env"] for s in summaries.values() if s["env"]), {})
        args.out.write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "workloads": summaries},
            indent=1) + "\n")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
