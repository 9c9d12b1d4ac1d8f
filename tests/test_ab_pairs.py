import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def result(ops, rss, failed=0, attempted=12, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def rated(res, raw, slowdown):
    """A parsed run result with the factors `run_once` adds to it."""
    return res | {"raw_rate": raw, "slowdown": slowdown}


# The standard-error summary line of `bench/run.py`, as it prints it.
STDERR_LINE = ("train_cold seed 351 trace 0: 5 rounds, raw rates 1.0100 0.9800 1.0500 "
               "1.0000 0.9900 /s, host slowdown 1.1230 from 9 probes, ops_per_s 1.1230; "
               "setup passes 0.5000 0.4000 0.4500 s, host slowdown 1.0100, setup_s 0.4400")


def line(*args, **kwargs):
    return json.dumps(result(*args, **kwargs))


def canned_pairs(parent_ops, change_ops, parent_rss, change_rss):
    return [{"parent": ab.parse_result(line(po, pr)), "change": ab.parse_result(line(co, cr))}
            for po, co, pr, cr in zip(parent_ops, change_ops, parent_rss, change_rss)]


def test_parse_result_takes_the_last_line():
    out = "progress\n" + line(1.5, 40.0) + "\n\n"
    assert ab.parse_result(out) == result(1.5, 40.0)
    with pytest.raises(ValueError):
        ab.parse_result("\n  \n")


def test_parse_rates_takes_the_run_median_and_the_round_slowdown_of_the_last_line():
    # The second "host slowdown" of the line is the set-up's, not the rounds'.
    assert ab.parse_rates(STDERR_LINE) == {"raw_rate": 1.0, "slowdown": 1.123}
    earlier = STDERR_LINE.replace("raw rates 1.0100", "raw rates 9.0000")
    assert ab.parse_rates("operation raised X\n" + earlier + "\n" + STDERR_LINE + "\n") == \
        {"raw_rate": 1.0, "slowdown": 1.123}
    with pytest.raises(ValueError):
        ab.parse_rates("operation raised X\n")


def test_rates_summary_gives_side_medians_and_raw_rate_wins():
    pairs = [{"parent": rated(result(1, 50), pr, ps), "change": rated(result(1, 50), cr, cs)}
             for pr, ps, cr, cs in [(1.05, 1.12, 1.00, 1.03), (1.06, 1.10, 1.10, 1.00),
                                    (1.04, 1.13, 1.04, 1.05), (1.07, 1.11, 0.99, 1.04)]]
    rates = ab.summarize_rates(pairs)
    assert rates["raw_rate"] == {"parent": pytest.approx(1.055), "change": pytest.approx(1.02)}
    assert rates["slowdown"] == {"parent": pytest.approx(1.115), "change": pytest.approx(1.035)}
    assert (rates["raw_wins"], rates["pairs"]) == (1, 4)  # a tie counts for neither
    text = ab.format_summary(ab.summarize(pairs, METRICS), ab.failures(pairs), rates)
    assert "raw rate: parent 1.055 /s, change 1.02 /s (-0.033), change won 1/4" in text
    # Raw-rate ratios 0.9524, 1.0377, 1.0, 0.9252, taken pair by pair.
    assert rates["raw_ratio"] == pytest.approx(ab.quartiles(
        [1.00 / 1.05, 1.10 / 1.06, 1.04 / 1.04, 0.99 / 1.07]))
    assert f"pair ratio {rates['raw_ratio'][1]:.4f} [" in text
    assert "host slowdown: parent 1.115, change 1.035" in text


def test_quartiles_are_those_of_statistics_quantiles():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    pairs = canned_pairs([1, 2, 3, 4, 5], [2, 3, 3, 5, 6],
                         [50, 50, 50, 50, 50], [49, 51, 50, 49, 49])
    ops, rss = ab.summarize(pairs, METRICS)
    assert (ops["wins"], ops["pairs"]) == (4, 5)
    assert ops["parent"] == (1.5, 3.0, 4.5) and ops["change"] == (2.5, 3.0, 5.5)
    assert ops["relative"] == 0.0
    assert rss["wins"] == 3 and rss["change"][1] == 49


def test_gain_needs_nine_tenths_of_the_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    rss = [50.0] * 10
    # Wins 10/10, but the median gap (0.1) is inside the parent IQR (0.55).
    small = ab.summarize(canned_pairs(parent, [x + 0.1 for x in parent], rss, rss), METRICS)
    assert small[0]["wins"] == 10 and not small[0]["gain"]
    # Gap 1.0 > IQR with 9/10 wins: a gain.
    big = [x + 1.0 for x in parent]
    big[3] = parent[3] - 0.5
    row = ab.summarize(canned_pairs(parent, big, rss, rss), METRICS)[0]
    assert row["wins"] == 9 and row["gain"]
    # 8/10 wins is not enough however large the gap.
    big[4] = parent[4] - 0.5
    row = ab.summarize(canned_pairs(parent, big, rss, rss), METRICS)[0]
    assert row["wins"] == 8 and not row["gain"]
    # A lower-is-better metric gains by falling.
    row = ab.summarize(canned_pairs(parent, parent, rss, [40.0] * 10), METRICS)[1]
    assert row["wins"] == 10 and row["gain"] and row["relative"] == pytest.approx(-0.2)


def test_the_pair_ratio_is_taken_within_each_pair_and_leaves_the_gain_rule_alone():
    # The seeds spread the parent over 1.0..1.9 (IQR 0.55); in every pair the
    # change runs 4% faster, a gap of 0.058 at the median, inside that range.
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    rss = [50.0] * 10
    pairs = canned_pairs(parent, [x * 1.04 for x in parent], rss, [x * 0.99 for x in rss])
    ops, mem = ab.summarize(pairs, METRICS)
    assert ops["ratio"] == pytest.approx((1.04, 1.04, 1.04))
    assert ops["wins"] == 10 and not ops["gain"]
    assert mem["ratio"] == pytest.approx((0.99, 0.99, 0.99)) and mem["gain"]
    rates = ab.summarize_rates([{side: p[side] | {"raw_rate": 1.0, "slowdown": 1.0}
                                 for side in ab.SIDES} for p in pairs])
    text = ab.format_summary([ops, mem], ab.failures(pairs), rates)
    assert "| +0.040 | 1.0400 [1.0400, 1.0400] | 10/10 | no |" in text
    assert "| -0.010 | 0.9900 [0.9900, 0.9900] | 10/10 | yes |" in text


def test_gain_needs_ten_pairs():
    rss = [50.0] * 10
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    for n, shown in ((9, "too few pairs"), (10, "yes")):
        pairs = canned_pairs(parent[:n], [x + 1.0 for x in parent[:n]], rss[:n], rss[:n])
        rates = ab.summarize_rates([{side: p[side] | {"raw_rate": 1.0, "slowdown": 1.0}
                                     for side in ab.SIDES} for p in pairs])
        rows = ab.summarize(pairs, METRICS)
        assert rows[0]["wins"] == n and rows[0]["gain"] == (n >= ab.MIN_PAIRS)
        text = ab.format_summary(rows, ab.failures(pairs), rates)
        assert f"| {n}/{n} | {shown} |" in text


def test_failures_sum_per_side():
    pairs = [{"parent": rated(result(1, 50, failed=1, attempted=12), 1.0, 1.0),
              "change": rated(result(1, 50, failed=0, attempted=12), 1.0, 1.0)},
             {"parent": rated(result(1, 50, failed=0, attempted=9), 1.0, 1.0),
              "change": rated(result(1, 50, failed=2, attempted=9), 1.0, 1.0)}]
    assert ab.failures(pairs) == {"parent": (1, 21), "change": (2, 21)}
    text = ab.format_summary(ab.summarize(pairs, METRICS), ab.failures(pairs),
                             ab.summarize_rates(pairs))
    assert "parent 1/21, change 2/21" in text and "| `ops_per_s` | higher |" in text


FAKE_RUN = """\
import json, os, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(LOG, "a") as fh:
    fh.write(f"{root.name} {seed}\\n")
with open(CWDS, "a") as fh:
    left = [p for p in (".git", "src/__pycache__", "bench/out", "bench/keep/out") if Path(p).exists()]
    fh.write(json.dumps([os.getcwd(), left]) + "\\n")
print("set-up done")
print(STDERR, file=sys.stderr)
print(RESULT)
"""


def fake_checkout(path, res, raw_rates):
    """A checkout whose `bench/run.py` prints `res` and logs, next to the
    checkout, its name and seed (`order.log`), and its working directory
    with what it finds of `.git`, `src/__pycache__`, `bench/out` and
    `bench/keep/out` (`cwds.log`)."""
    (path / "bench").mkdir(parents=True)
    stderr = STDERR_LINE.replace("1.0100 0.9800 1.0500 1.0000 0.9900", raw_rates)
    (path / "bench" / "run.py").write_text(
        FAKE_RUN.replace("RESULT", repr(json.dumps(res))).replace("STDERR", repr(stderr))
        .replace("LOG", repr(str(path.parent / "order.log")))
        .replace("CWDS", repr(str(path.parent / "cwds.log"))))
    for junk in (".git/HEAD", "src/__pycache__/x.pyc", "bench/out/old.json",
                 "bench/keep/out/kept.json"):
        (path / junk).parent.mkdir(parents=True, exist_ok=True)
        (path / junk).write_text("x")
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return str(path)


@pytest.mark.parametrize("change_correct,code", [(True, 0), (False, 1)])
def test_runs_alternate_and_a_wrong_output_fails_the_comparison(
        tmp_path, capsys, change_correct, code):
    parent = fake_checkout(tmp_path / "parent", result(1.0, 50.0), "0.9 1.0 1.1")
    change = fake_checkout(tmp_path / "change", result(2.0, 49.0, correct=change_correct),
                           "1.9 2.0")
    assert ab.main([parent, change, "--workload", "w", "--pairs", "3",
                    "--seconds", "1", "--seeds", "7", "8"]) == code
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 7", "change 7", "change 8", "parent 8", "parent 7", "change 7"]
    out = capsys.readouterr().out
    assert "| 3/3 | too few pairs |" in out and "parent 0/36, change 0/36" in out
    assert "raw rate: parent 1 /s, change 1.95 /s (+0.950), change won 3/3" in out


def test_each_side_runs_in_a_sibling_copy_that_is_removed_afterwards(tmp_path, capsys):
    parent = fake_checkout(tmp_path / "parent_checkout", result(1.0, 50.0), "1.0")
    change = fake_checkout(tmp_path / "ch", result(1.0, 50.0), "1.0")
    assert ab.main([parent, change, "--workload", "w", "--pairs", "2",
                    "--seconds", "1", "--seeds", "7"]) == 0
    runs = [json.loads(line) for line in (tmp_path / "cwds.log").read_text().splitlines()]
    cwds = [Path(cwd) for cwd, _ in runs]
    # Parent first in pair 0, change first in pair 1.
    assert cwds[0] == cwds[3] and cwds[1] == cwds[2] and cwds[0] != cwds[1]
    assert cwds[0].parent == cwds[1].parent
    assert len(cwds[0].name) == len(cwds[1].name)
    assert tmp_path not in cwds[0].parents
    # Only the junk outside `bench/out` and `__pycache__` is copied.
    assert all(left == ["bench/keep/out"] for _, left in runs)
    assert not cwds[0].parent.exists()
    out = capsys.readouterr().out
    assert f"parent: {Path(parent).resolve()}" in out and f"change: {Path(change).resolve()}" in out
