"""Fold two sets of benchmark results into paired medians, quartiles and win counts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--out BENCH_<n>.json]

PARENT_DIR and CHANGE_DIR are the ``.bench_out/`` directories that
``perfbench/run.py`` wrote in a checkout of the parent commit and of the
change. Result files are paired by workload and seed; a pair whose sides
ran for different ``seconds`` is an error (exit 1). For each workload
and each end-to-end metric of ``BENCHMARK.json`` (untraced runs) the
script prints the median and quartiles of each side and how many pairs
the change wins, in the metric's better direction, and the relative change
of the medians, signed so that positive is worse, and a verdict (see
``verdict``). A workload where the change fails a larger share of its
operations than the parent gets a ``FAILED`` line, every one of its metrics
the verdict ``FAILED``, and the script exits 1. Each workload also gets one
line on whether the first cycle's ``outputs`` have the same float bits on
both sides of every pair (``same_bits``); it reports, it does not gate.
``perfbench/run.py`` scales each time by the speed of a calibration kernel
measured in the same process; beside each scaled metric the script prints
the medians of its unscaled values (``end_to_end_unscaled``), and per
workload each side's median calibration-kernel time, so that a drift of the
kernel between the two builds can be told from a change of the program.
These are reports too: every verdict reads the scaled values.
Traced runs, where both sides have one for a seed, add the medians of each
per-layer metric. ``--out`` writes the same data as JSON. Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Optional

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_GAIN = 0.01  # the smallest gain a claim can meet, relative to the parent's median


def load_runs(directory: Path) -> dict[tuple[str, int, int], dict]:
    """Every result file in a directory, keyed by (workload, trace, seed)."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        # a traced run keeps its trace dump, not the flag's value, under "trace"
        trace = 1 if isinstance(result["trace"], dict) else result["trace"]
        runs[result["workload"], trace, result["seed"]] = result
    return runs


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def verdict(before: list[float], after: list[float], sign: int, bound: float,
            wins: int, beyond_bound: bool) -> str:
    """One metric's verdict over paired runs; ``sign`` is 1 when higher is better.

    ``CLAIM MET``: the change wins at least nine tenths of the pairs (ties count for
    neither side) and its median is better by more than the parent's interquartile
    distance and by at least ``MIN_GAIN`` of the parent's median. ``BEYOND BOUND``:
    the change's median is worse than the parent's by more than the metric's bound.
    ``UNRESOLVED``: the parent's interquartile distance over its median exceeds the
    bound, so its runs spread too widely to call the metric unchanged, unless every
    change run beats every parent run.
    ``WITHIN BOUND`` otherwise.
    """
    parent = summary(before)
    spread = parent["q3"] - parent["q1"]
    gain = sign * (statistics.median(after) - parent["median"])
    large = gain > spread and gain >= MIN_GAIN * abs(parent["median"])
    if 10 * wins >= 9 * len(before) and large:
        return "CLAIM MET"
    if beyond_bound:
        return "BEYOND BOUND"
    every_run_better = min(sign * a for a in after) > max(sign * b for b in before)
    if spread > bound * abs(parent["median"]) and not every_run_better:
        return "UNRESOLVED"
    return "WITHIN BOUND"


def leaves(value, key: str = ""):
    """The dotted key and value of every leaf of a run's ``outputs``, in order, a float
    as its ``hex()``: ``perfbench/run.py``'s rule for comparing them bit for bit."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from leaves(v, f"{key}[{i}]")
    else:
        yield key, value.hex() if isinstance(value, float) else value


def same_bits(pairs: list[tuple[dict, dict]], seeds: list[int]) -> dict:
    """Whether the first cycle's outputs have the same float bits on both sides of
    every pair, and the first seed and key where they do not."""
    for seed, (p, c) in zip(seeds, pairs):
        before, after = (dict(leaves(side["cycles"][0]["outputs"])) for side in (p, c))
        for key in list(before) + [k for k in after if k not in before]:
            if key not in before or key not in after or before[key] != after[key]:
                return {"same": False, "seeds": len(seeds), "seed": seed, "key": key}
    return {"same": True, "seeds": len(seeds)}


def calibration_s(runs: list[dict]) -> Optional[float]:
    """The median over runs of each run's median calibration-kernel time, the time
    ``perfbench/run.py`` scales its cycle times by; None for runs that record none."""
    if all(run.get("calibrations_s") for run in runs):
        return statistics.median(statistics.median(run["calibrations_s"]) for run in runs)
    return None


def unscaled(pairs: list[tuple[dict, dict]], name: str) -> Optional[dict]:
    """Each side's median of metric ``name`` before scaling; None when a run does not
    record it, or when no run scaled it (peak RSS is not scaled)."""
    raw = [[side.get("end_to_end_unscaled", {}).get(name) for side in pair] for pair in pairs]
    if None in (value for pair in raw for value in pair) or all(
            side["end_to_end"][name] == value
            for pair, values in zip(pairs, raw) for side, value in zip(pair, values)):
        return None
    return {"parent": statistics.median(p for p, _ in raw),
            "change": statistics.median(c for _, c in raw)}


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    workloads = {}
    for workload in sorted({w for w, _, _ in parent} & {w for w, _, _ in change}):
        seeds = sorted(s for w, tr, s in parent if w == workload and tr == 0
                       and (w, 0, s) in change)
        if not seeds:
            continue
        pairs = [(parent[workload, 0, s], change[workload, 0, s]) for s in seeds]
        entry = {"seeds": seeds, "outputs": same_bits(pairs, seeds), "end_to_end": {},
                 "per_layer": {}, "calibration_s": {
                     label: calibration_s([pair[index] for pair in pairs])
                     for label, index in (("parent", 0), ("change", 1))}}
        for side, index in (("parent", 0), ("change", 1)):
            entry[f"{side}_failed"] = sum(p[index]["failed"] for p in pairs)
            entry[f"{side}_attempted"] = sum(p[index]["attempted"] for p in pairs)
        # a gain does not count when a larger share of operations fails
        entry["failed"] = (entry["change_failed"] * entry["parent_attempted"]
                           > entry["parent_failed"] * entry["change_attempted"])
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [p["end_to_end"][name] for p, _ in pairs]
            after = [c["end_to_end"][name] for _, c in pairs]
            parent_median, change_median = statistics.median(before), statistics.median(after)
            # positive is worse; None when the parent's median is 0
            relative = (sign * (parent_median - change_median) / abs(parent_median)
                        if parent_median else None)
            wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
            beyond_bound = relative is not None and relative > metric["bound"]
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": summary(before), "change": summary(after),
                "change_wins": wins, "pairs": len(pairs), "relative": relative,
                "beyond_bound": beyond_bound, "unscaled": unscaled(pairs, name),
                "verdict": "FAILED" if entry["failed"] else verdict(
                    before, after, sign, metric["bound"], wins, beyond_bound),
            }
        traced = [s for s in sorted({s for w, tr, s in parent if w == workload and tr == 1})
                  if (workload, 1, s) in change]
        if traced:
            entry["traced_seeds"] = traced
            runs = [side[workload, 1, s]["metrics"] for side in (parent, change) for s in traced]
            for name, value in runs[0].items():
                if all(name in run for run in runs):
                    entry["per_layer"][name] = {"unit": value["unit"]} | {
                        label: statistics.median(side[workload, 1, s]["metrics"][name]["value"]
                                                 for s in traced)
                        for label, side in (("parent", parent), ("change", change))}
        workloads[workload] = entry
    return workloads


def report(workloads: dict) -> str:
    lines = []
    for workload, entry in workloads.items():
        lines.append(f"{workload}: {len(entry['seeds'])} pairs, seeds {entry['seeds']}; failed "
                     f"{entry['parent_failed']}/{entry['parent_attempted']} -> "
                     f"{entry['change_failed']}/{entry['change_attempted']}")
        if entry["failed"]:
            lines.append("  FAILED: the change fails a larger share of operations than the parent")
        bits = entry["outputs"]
        lines.append(f"  outputs: SAME BITS ({bits['seeds']} of {bits['seeds']} seeds)"
                     if bits["same"] else
                     f"  outputs: OUTPUTS DIFFER, first at seed {bits['seed']}, key {bits['key']}")
        for name, m in entry["end_to_end"].items():
            p, c = m["parent"], m["change"]
            relative = "n/a" if m["relative"] is None else f"{m['relative']:+.1%}"
            lines.append(f"  {name:<17} {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}] -> "
                         f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {m['unit']}, "
                         f"{m['better']} is better; change wins {m['change_wins']}/{m['pairs']}; "
                         f"worse by {relative} (bound {m['bound']:.0%}) {m['verdict']}")
            if m["unscaled"]:
                raw = m["unscaled"]
                lines.append(f"    unscaled medians {raw['parent']:.5g} -> {raw['change']:.5g} "
                             f"{m['unit']}")
        kernel = entry["calibration_s"]
        if kernel["parent"] is not None and kernel["change"] is not None:
            lines.append(f"  calibration kernel median {kernel['parent']:.5g} -> "
                         f"{kernel['change']:.5g} s")
        if entry["per_layer"]:
            lines.append(f"  per layer, medians of traced seeds {entry['traced_seeds']}:")
            for name, m in entry["per_layer"].items():
                lines.append(f"    {name:<40} {m['parent']:.5g} -> {m['change']:.5g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent commit's .bench_out/ directory")
    parser.add_argument("change", type=Path, help="the change's .bench_out/ directory")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    for workload, trace, seed in sorted(parent.keys() & change.keys()):
        lengths = [side[workload, trace, seed]["seconds"] for side in (parent, change)]
        if lengths[0] != lengths[1]:
            print(f"{workload} seed {seed}: the parent ran for {lengths[0]} s and the change "
                  f"for {lengths[1]} s; pair runs of the same length", file=sys.stderr)
            return 1
    workloads = compare(parent, change, end_to_end)
    if not workloads:
        print("no workload and seed has a result on both sides", file=sys.stderr)
        return 1
    print(report(workloads))
    if args.out:
        environment = next(iter(parent.values()))["environment"]
        args.out.write_text(json.dumps({"environment": environment, "workloads": workloads},
                                       indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 1 if any(entry["failed"] for entry in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
