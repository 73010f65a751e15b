"""Tests for tools/bench_pairs.py, which folds benchmark result pairs into a summary."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "cycle_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "train_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
]


OUTPUTS = {"RotatE": {"loss": 0.5, "MR": 12.25, "params": "ab12"}, "accuracy": [0.5, 0.75]}


def write_run(directory, workload, seed, trace=0, failed=0, seconds=30.0, outputs=OUTPUTS,
              unscaled=None, calibrations=None, **values):
    directory.mkdir(exist_ok=True)
    measured = {} if unscaled is None else {"end_to_end_unscaled": unscaled,
                                            "calibrations_s": calibrations}
    result = {**measured,"workload": workload, "seed": seed, "trace": {"spans": []} if trace else 0,
              "seconds": seconds, "attempted": 10, "cycles": [{"outputs": outputs}],
              "failed": failed, "environment": {"nproc": 2},
              "end_to_end": values if not trace else {},
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_pairs_by_workload_and_seed_and_counts_wins_by_direction(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (cycle, rate) in enumerate([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]):
        write_run(parent, "kg", seed, cycle_s=cycle, train_per_s=rate)
    # seed 0 loses both metrics, seeds 1-2 win both, seed 3 ties; seed 9 has no parent
    for seed, (cycle, rate) in enumerate([(1.5, 9.0), (1.0, 25.0), (2.0, 35.0), (4.0, 40.0)]):
        write_run(change, "kg", seed, cycle_s=cycle, train_per_s=rate, failed=seed == 1)
    write_run(change, "kg", 9, cycle_s=0.1, train_per_s=99.0)
    workloads = bench_pairs.compare(bench_pairs.load_runs(parent),
                                    bench_pairs.load_runs(change), END_TO_END)
    entry = workloads["kg"]
    assert entry["seeds"] == [0, 1, 2, 3]
    assert (entry["parent_failed"], entry["change_failed"], entry["change_attempted"]) == (0, 1, 40)
    cycle, rate = entry["end_to_end"]["cycle_s"], entry["end_to_end"]["train_per_s"]
    assert cycle["change_wins"] == rate["change_wins"] == 2
    assert cycle["pairs"] == 4
    assert cycle["parent"]["median"] == 2.5 and cycle["change"]["median"] == 1.75
    assert (cycle["parent"]["q1"], cycle["parent"]["q3"]) == (1.75, 3.25)
    assert rate["change"]["values"] == [9.0, 25.0, 35.0, 40.0]


def test_per_layer_medians_come_from_traced_seeds_on_both_sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, factor in ((parent, 1.0), (change, 0.5)):
        write_run(side, "kg", 1, cycle_s=1.0, train_per_s=1.0)
        for seed, value in ((1, 2.0), (2, 4.0), (3, 6.0)):
            write_run(side, "kg", seed, trace=1, **{"kge.train_kge_self_s": value * factor})
    write_run(parent, "kg", 4, trace=1, **{"kge.train_kge_self_s": 100.0})  # unpaired
    entry = bench_pairs.compare(bench_pairs.load_runs(parent), bench_pairs.load_runs(change),
                                END_TO_END)["kg"]
    assert entry["traced_seeds"] == [1, 2, 3]
    assert entry["per_layer"]["kge.train_kge_self_s"] == {"unit": "s", "parent": 4.0,
                                                          "change": 2.0}


def test_main_writes_json_and_fails_without_pairs(tmp_path, capsys):
    """main reads the metric names and directions from the repository's BENCHMARK.json."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    write_run(parent, "kg", 1, **dict.fromkeys(names, 1.0))
    write_run(change, "kg", 2, **dict.fromkeys(names, 1.0))
    assert bench_pairs.main([str(parent), str(change)]) == 1
    write_run(change, "kg", 1, **dict.fromkeys(names, 1.0) | {"cycle_s": 0.5})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    assert "change wins 1/1" in capsys.readouterr().out
    written = json.loads(out.read_text())
    assert written["environment"] == {"nproc": 2}
    assert written["workloads"]["kg"]["end_to_end"]["cycle_s"]["change_wins"] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_runs_of_different_lengths_are_refused_naming_workload_and_seed(
        tmp_path, capsys, trace):
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    for seed in (1, 2):
        write_run(parent, "kg", seed, **dict.fromkeys(names, 1.0))
        write_run(change, "kg", seed, **dict.fromkeys(names, 1.0))
    write_run(parent, "kg", 3, trace=trace, **dict.fromkeys(names, 1.0))
    write_run(change, "kg", 3, trace=trace, seconds=10.0, **dict.fromkeys(names, 1.0))
    assert bench_pairs.main([str(parent), str(change)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("kg seed 3: the parent ran for 30.0 s and the change for 10.0 s; "
                            "pair runs of the same length\n")


def test_relative_change_is_signed_worse_and_flagged_beyond_bound(tmp_path, capsys):
    """cycle_s rises 30% (worse, beyond its 25% bound); train_per_s rises 10% (better)."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (0, 1):
        write_run(parent, "kg", seed, cycle_s=1.0, train_per_s=10.0)
        write_run(change, "kg", seed, cycle_s=1.3, train_per_s=11.0)
    workloads = bench_pairs.compare(bench_pairs.load_runs(parent),
                                    bench_pairs.load_runs(change), END_TO_END)
    cycle, rate = (workloads["kg"]["end_to_end"][name] for name in ("cycle_s", "train_per_s"))
    assert cycle["relative"] == pytest.approx(0.3) and cycle["beyond_bound"] is True
    assert rate["relative"] == pytest.approx(-0.1) and rate["beyond_bound"] is False
    assert (cycle["verdict"], rate["verdict"]) == ("BEYOND BOUND", "CLAIM MET")
    lines = bench_pairs.report(workloads).splitlines()
    flagged = [line for line in lines if "BEYOND BOUND" in line]
    assert len(flagged) == 1 and "cycle_s" in flagged[0] and "worse by +30.0%" in flagged[0]
    assert any("train_per_s" in line and "worse by -10.0%" in line for line in lines)


def verdicts(tmp_path, before, after):
    """The verdict of cycle_s (lower is better, bound 25%) over pairs of runs."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (b, a) in enumerate(zip(before, after)):
        write_run(parent, "kg", seed, cycle_s=b, train_per_s=1.0)
        write_run(change, "kg", seed, cycle_s=a, train_per_s=1.0)
    entry = bench_pairs.compare(bench_pairs.load_runs(parent), bench_pairs.load_runs(change),
                                END_TO_END)["kg"]
    return entry["end_to_end"]["cycle_s"]["verdict"]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
SPREAD = [1.0] * 6 + [1.9] * 4
RSS = [45.27, 45.26, 45.27, 45.28, 45.27, 45.27, 45.26, 45.28, 45.27, 45.27]


@pytest.mark.parametrize("after,expected", [
    ([v * 0.6 for v in PARENT], "CLAIM MET"),
    # nine of ten pairs won by far; the tenth, a tie, counts for neither side
    ([v * 0.6 for v in PARENT[:9]] + [PARENT[9]], "CLAIM MET"),
    # eight of ten pairs won: not enough, though the median moved far
    ([v * 0.6 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]], "WITHIN BOUND"),
    # every pair won, but by less than the parent's interquartile distance
    ([v - 0.005 for v in PARENT], "WITHIN BOUND"),
    ([v * 1.3 for v in PARENT], "BEYOND BOUND"),
], ids=["all-won", "nine-and-a-tie", "eight-won", "inside-the-spread", "worse"])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_spread(
        tmp_path, after, expected):
    assert verdicts(tmp_path, PARENT, after) == expected


@pytest.mark.parametrize("after,expected", [
    ([v - 0.09 for v in RSS], "WITHIN BOUND"),  # 0.2% better, 10 of 10 won
    ([v - 0.46 for v in RSS], "CLAIM MET"),  # 1.02% better
], ids=["below-one-percent", "one-percent"])
def test_claim_needs_a_gain_of_at_least_one_percent(tmp_path, after, expected):
    """Peak RSS barely spreads: the parent's quartiles lie 0.01 apart, so a change
    that wins every pair by 0.09 of 45.27 beats the spread, but that is no claim."""
    assert verdicts(tmp_path, RSS, after) == expected


@pytest.mark.parametrize("after,expected", [
    ([v * 0.97 for v in SPREAD], "UNRESOLVED"),
    ([0.99] * 10, "WITHIN BOUND"),  # every change run beats every parent run
    ([0.99] * 9 + [1.0], "UNRESOLVED"),  # one ties the parent's best run
], ids=["shifted", "every-run-better", "one-tie"])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(tmp_path, after, expected):
    """The parent's quartiles 1.0 and 1.9 lie 90% of its median 1.0 apart (bound 25%),
    and no change median here is better by that much."""
    assert verdicts(tmp_path, SPREAD, after) == expected


def test_verdict_is_printed_and_written(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    for seed in range(10):
        write_run(parent, "kg", seed, **dict.fromkeys(names, 1.0))
        write_run(change, "kg", seed, **dict.fromkeys(names, 1.0) | {"cycle_s": 0.5})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cycle_s" in line and line.endswith("CLAIM MET") for line in lines)
    assert any("setup_s" in line and line.endswith("WITHIN BOUND") for line in lines)
    written = json.loads(out.read_text())["workloads"]["kg"]["end_to_end"]
    assert written["cycle_s"]["verdict"] == "CLAIM MET"
    assert written["peak_rss_mb"]["verdict"] == "WITHIN BOUND"


@pytest.mark.parametrize("parent_failed,change_failed,failed", [
    ([0] * 10, [0] * 9 + [1], True),  # one failed run on the change side
    ([1] * 10, [1] * 9 + [2], True),
    ([1] + [0] * 9, [0] * 9 + [1], False),  # the same share on both sides
    ([2] * 10, [1] * 10, False),  # the change fails less
], ids=["one-more", "more-of-many", "same-share", "fewer"])
def test_a_larger_failed_share_fails_every_metric_and_the_exit_code(
        tmp_path, capsys, parent_failed, change_failed, failed):
    """The change wins every pair by far, which is a claim met, unless it fails a larger
    share of its operations than the parent does."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    for seed in range(10):
        write_run(parent, "kg", seed, failed=parent_failed[seed], **dict.fromkeys(names, 1.0))
        write_run(change, "kg", seed, failed=change_failed[seed],
                  **dict.fromkeys(names, 1.0) | {"cycle_s": 0.5})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == int(failed)
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("  FAILED") for line in lines) == failed
    written = json.loads(out.read_text())["workloads"]["kg"]
    assert written["failed"] == failed
    verdicts = {name: m["verdict"] for name, m in written["end_to_end"].items()}
    if failed:
        assert set(verdicts.values()) == {"FAILED"}
        assert sum(line.endswith(" FAILED") for line in lines) == len(names)
    else:
        assert verdicts["cycle_s"] == "CLAIM MET"


def test_outputs_are_compared_bit_for_bit_per_seed(tmp_path, capsys):
    """The first cycle's outputs of every pair: the same bits read SAME BITS; one
    digest that differs in one seed reads OUTPUTS DIFFER and names seed and key."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    for seed in range(3):
        write_run(parent, "kg", seed, **dict.fromkeys(names, 1.0))
        write_run(change, "kg", seed, **dict.fromkeys(names, 1.0))
        write_run(parent, "news", seed, **dict.fromkeys(names, 1.0))
    differ = {**OUTPUTS, "RotatE": {**OUTPUTS["RotatE"], "params": "ab13"}}
    write_run(change, "news", 0, **dict.fromkeys(names, 1.0))
    write_run(change, "news", 1, outputs=differ, **dict.fromkeys(names, 1.0))
    write_run(change, "news", 2, outputs=differ, **dict.fromkeys(names, 1.0))
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  outputs: SAME BITS (3 of 3 seeds)" in lines
    assert "  outputs: OUTPUTS DIFFER, first at seed 1, key RotatE.params" in lines
    written = json.loads(out.read_text())["workloads"]
    assert written["kg"]["outputs"] == {"same": True, "seeds": 3}
    assert written["news"]["outputs"] == {"same": False, "seeds": 3, "seed": 1,
                                          "key": "RotatE.params"}


@pytest.mark.parametrize("before,after,key", [
    (OUTPUTS, {**OUTPUTS, "accuracy": [0.5, 0.75000000000000001]}, None),  # the same float
    (OUTPUTS, {**OUTPUTS, "accuracy": [0.5, 0.7500000000000001]}, "accuracy[1]"),  # one ulp
    ({"loss": 0.0}, {"loss": -0.0}, "loss"),  # equal floats, different bits
    (OUTPUTS, {"RotatE": OUTPUTS["RotatE"]}, "accuracy[0]"),  # a key missing
    (OUTPUTS, {**OUTPUTS, "extra": 1}, "extra"),
])
def test_a_difference_names_the_first_key_whose_bits_differ(before, after, key):
    got = bench_pairs.same_bits([({"cycles": [{"outputs": before}]},
                                  {"cycles": [{"outputs": after}]})], [7])
    assert got == ({"same": True, "seeds": 1} if key is None
                   else {"same": False, "seeds": 1, "seed": 7, "key": key})


def test_unscaled_medians_and_the_calibration_kernel_are_reported_beside_the_verdicts(
        tmp_path, capsys):
    """The scaled cycle_s reads 10% worse because the kernel ran 10% faster in the
    change's runs; the unscaled medians and the kernel's show it. Peak RSS is not
    scaled, so it gets no unscaled line. The verdicts still read the scaled values."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]]
    raw = dict.fromkeys(names, 1.0)
    for seed in range(3):
        write_run(parent, "kg", seed, unscaled=raw, calibrations=[0.05, 0.04, 0.06], **raw)
        write_run(change, "kg", seed, unscaled=raw, calibrations=[0.036, 0.036, 0.04],
                  **raw | {"cycle_s": 1.1, "setup_s": 1.1, "train_per_s": 1 / 1.1,
                           "eval_ms_per_item": 1.1})
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(parent), str(change), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("cycle_s"))
    assert lines[at].endswith("worse by +10.0% (bound 25%) WITHIN BOUND")
    assert lines[at + 1] == "    unscaled medians 1 -> 1 s"
    assert "  calibration kernel median 0.05 -> 0.036 s" in lines
    assert sum(line.startswith("    unscaled medians") for line in lines) == len(names) - 1
    written = json.loads(out.read_text())["workloads"]["kg"]
    assert written["calibration_s"] == {"parent": 0.05, "change": 0.036}
    assert written["end_to_end"]["cycle_s"]["unscaled"] == {"parent": 1.0, "change": 1.0}
    assert written["end_to_end"]["peak_rss_mb"]["unscaled"] is None


def test_runs_without_unscaled_values_report_none(tmp_path, capsys):
    """Result files written before ``end_to_end_unscaled`` existed still pair."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        write_run(side, "kg", 1, cycle_s=1.0, train_per_s=1.0)
    entry = bench_pairs.compare(bench_pairs.load_runs(parent), bench_pairs.load_runs(change),
                                END_TO_END)["kg"]
    assert entry["calibration_s"] == {"parent": None, "change": None}
    assert entry["end_to_end"]["cycle_s"]["unscaled"] is None
    assert not any("unscaled" in line or "calibration" in line
                   for line in bench_pairs.report({"kg": entry}).splitlines())
