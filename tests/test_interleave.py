"""The summary of tools/interleave.py on fixed job timings."""

import importlib.util
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).parent.parent / "tools"


@pytest.fixture(scope="module")
def interleave():
    sys.path.insert(0, str(TOOLS))          # for its sibling job_digests
    try:
        spec = importlib.util.spec_from_file_location("interleave", TOOLS / "interleave.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def _job(label, weight, parent_ms, change_ms, same=True):
    return {"label": label, "weight": weight, "same": same,
            "parent": [t / 1e3 for t in parent_ms], "change": [t / 1e3 for t in change_ms]}


def test_summary_per_label_cycle_quantiles_and_differing_outputs(interleave):
    records = [
        _job("span(4) over 2 symbols", 2, [1.0, 1.2, 1.1], [0.8, 0.9, 0.7]),
        _job("span(4) over 2 symbols", 1, [1.4, 1.3, 1.5], [1.4, 1.3, 1.5], same=False),
        _job("lemma22.cert", 6, [2.0, 2.4, 2.2], [1.0, 1.2, 1.1]),
        _job("sl2/F7", 1, [30.0, 31.0, 32.0], [30.0, 31.0, 32.0]),
    ]
    assert interleave.summarize(records) == [
        "lemma22.cert: 1 jobs, parent 2-2.2 ms, change 1-1.1 ms, change/parent 0.500",
        "sl2/F7: 1 jobs, parent 30-31 ms, change 30-31 ms, change/parent 1.000",
        # ratios 0.8, 0.75, 0.636 and 1, 1, 1: median (0.8 + 1) / 2
        "span(4) over 2 symbols: 2 jobs, parent 1-1.25 ms, change 0.7-1.1 ms, "
        "change/parent 0.900",
        # medians parent 1.1 x2, 1.4, 2.2 x6, 31 and change 0.8 x2, 1.4, 1.1 x6, 31
        "cycle p50 (10 jobs): parent 2.2 ms, change 1.1 ms, change/parent 0.500",
        "cycle p90 (10 jobs): parent 28.12 ms, change 28.04 ms, change/parent 0.997",
        # 2 x 1.1 + 1.4 + 6 x 2.2 + 31 and 2 x 0.8 + 1.4 + 6 x 1.1 + 31
        "cycle total (10 jobs): parent 47.8 ms, change 40.6 ms, change/parent 0.849",
        # round 0: parent 1 x2, 1.4, 2 x6, 30 and change 0.8 x2, 1.4, 1 x6, 30;
        # p90 sits 0.9 of the way from the 9th latency to the 10th
        "round p50 (3 rounds): parent 2-2.2-2.4 ms, change 1-1.1-1.2 ms, "
        "change/parent by round 0.500 0.500 0.500",
        "round p90 (3 rounds): parent 27.2-28.14-29.02 ms, change 27.14-28.03-28.95 ms, "
        "change/parent by round 0.998 0.996 0.998",
        "outputs differ on 1 of 4 jobs",
    ]


def test_round_quantiles_show_the_round_that_moved_the_cycle_p50(interleave):
    # the heavy job's median hides the change's slow third round, which the
    # cycle p50 of per-job medians never sees; the round p50 shows it
    records = [
        _job("light", 3, [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]),
        _job("heavy", 1, [10.0, 10.0, 10.0], [9.0, 9.0, 9.0]),
    ]
    lines = interleave.summarize(records)
    assert lines[2] == "cycle p50 (4 jobs): parent 1 ms, change 1 ms, change/parent 1.000"
    assert lines[5:7] == [
        "round p50 (3 rounds): parent 1-1-1 ms, change 1-1-3 ms, "
        "change/parent by round 1.000 1.000 3.000",
        # latencies 1 x3, 10 and 1 x3, 9, then 3 x3, 9: the exclusive p90
        # of four latencies extrapolates, 1.5 times the largest less 0.5
        # times the one before it
        "round p90 (3 rounds): parent 14.5-14.5-14.5 ms, change 12-13-13 ms, "
        "change/parent by round 0.897 0.897 0.828",
    ]


def test_cycle_quantiles_as_the_benchmark_takes_them(interleave):
    assert interleave.cycle_quantiles([0.004], [1]) == (0.004, 0.004)
    # ten latencies 1..10: median 5.5, exclusive 90th percentile 9.9
    p50, p90 = interleave.cycle_quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], [1] * 10)
    assert (p50, round(p90, 9)) == (5.5, 9.9)
    assert interleave.cycle_quantiles([1, 10], [9, 1])[0] == 1


def test_distinct_jobs_sum_the_weights_of_repeats_and_filter_by_kind(interleave):
    jobs = [
        {"argv": ["cert", "lemma22.cert"], "kind": "cert", "label": "lemma22.cert", "weight": 40},
        {"argv": ["check", "a.json"], "kind": "check", "label": "sl5/F7", "weight": 1},
        {"argv": ["cert", "lemma22.cert"], "kind": "cert", "label": "lemma22.cert", "weight": 40},
        {"argv": ["cert", "s.cert"], "kind": "cert", "label": "span(4)", "weight": 20},
    ]
    assert interleave.distinct_jobs(jobs, "cert") == [
        {"argv": ["cert", "lemma22.cert"], "label": "lemma22.cert", "weight": 80},
        {"argv": ["cert", "s.cert"], "label": "span(4)", "weight": 20},
    ]
    assert len(interleave.distinct_jobs(jobs)) == 3


def test_distinct_jobs_filter_by_label_substring(interleave):
    jobs = [
        {"argv": ["classify", "a.json"], "kind": "classify", "label": "witt5/F5", "weight": 3},
        {"argv": ["classify", "b.json"], "kind": "classify", "label": "witt5/F5/rebased",
         "weight": 40},
        {"argv": ["classify", "c.json"], "kind": "classify", "label": "sl4/F5", "weight": 14},
        {"argv": ["check", "a.json"], "kind": "check", "label": "witt5/F5", "weight": 1},
    ]
    assert [j["label"] for j in interleave.distinct_jobs(jobs, label="witt5")] == [
        "witt5/F5", "witt5/F5/rebased", "witt5/F5"]
    assert interleave.distinct_jobs(jobs, "classify", "rebased") == [
        {"argv": ["classify", "b.json"], "label": "witt5/F5/rebased", "weight": 40}]
    assert interleave.distinct_jobs(jobs, "check", "sl4") == []


def test_parent_package_loads_under_its_new_name(interleave, tmp_path, monkeypatch):
    pkg = tmp_path / "checkout" / "src" / "lieext"
    (pkg / "certs").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "certs" / "a.cert").write_text("symbols X\n")
    (pkg / "cli.py").write_text(
        "from importlib import resources\n"
        "def shipped(name):\n"
        '    return resources.files("lieext").joinpath("certs").joinpath(name).read_text()\n')
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "modules", dict(sys.modules))
    cli = interleave.load_parent(str(tmp_path / "checkout"), str(tmp_path / "packages"))
    assert cli.__name__ == "lieext_parent.cli"
    assert cli.shipped("a.cert") == "symbols X\n"
