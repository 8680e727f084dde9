"""The summary of tools/perf_pairs.py on fixed pairs of benchmark results."""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, name):
    """Pairs in the tool's order: the parent runs first in pairs 1, 3, ..."""
    return [{"parent": {name: p}, "change": {name: c}, "first": ("parent", "change")[k % 2]}
            for k, (p, c) in enumerate(zip(parent, change))]


def test_summary_counts_strict_wins_in_the_better_direction(perf_pairs):
    parent = [27.3, 26.5, 27.1, 20.0]
    change = [21.8, 20.6, 27.1, 18.9]
    (line,) = perf_pairs.summarize(_pairs(parent, change, "job_p90_ms"), [("job_p90_ms", "lower")])
    # inclusive quartiles of 4 values: positions 0.75, 1.5 and 2.25 of the sorted list
    # per-pair ratios 0.7985, 0.7774, 1.0 and 0.945, median of the middle two
    assert line == ("job_p90_ms (lower is better): parent 26.8 [24.88, 27.15]  "
                    "change 21.2 [20.18, 23.12]  "
                    "change better in 3/4 (1/2 parent first, 2/2 change first)  "
                    "change/parent per pair 0.872 [0.777, 1.000]")
    (line,) = perf_pairs.summarize(_pairs(parent, change, "rate"), [("rate", "higher")])
    assert line.endswith("change better in 0/4 (0/2 parent first, 0/2 change first)  "
                         "change/parent per pair 0.872 [0.777, 1.000]")


def test_summary_of_one_pair_and_of_several_metrics(perf_pairs):
    pairs = [{"parent": {"a": 1.0, "b": 5.0}, "change": {"a": 2.0, "b": 4.0}, "first": "parent"}]
    lines = perf_pairs.summarize(pairs, [("a", "higher"), ("b", "higher")])
    assert lines == [
        "a (higher is better): parent 1 [1, 1]  change 2 [2, 2]  "
        "change better in 1/1 (1/1 parent first, 0/0 change first)  "
        "change/parent per pair 2.000 [2.000, 2.000]",
        "b (higher is better): parent 5 [5, 5]  change 4 [4, 4]  "
        "change better in 0/1 (0/1 parent first, 0/0 change first)  "
        "change/parent per pair 0.800 [0.800, 0.800]",
    ]


def test_ratios_are_taken_pair_by_pair(perf_pairs):
    # Both sides drift together from pair to pair: the quartiles of the two
    # sides overlap, but every pair's ratio is 0.85-0.9.  Pairs whose parent
    # value is 0 give no ratio.
    parent = [10.0, 20.0, 15.0, 0.0, 12.0]
    change = [8.5, 18.0, 13.2, 1.0, 10.44]
    (line,) = perf_pairs.summarize(_pairs(parent, change, "t"), [("t", "lower")])
    assert line.endswith("change better in 4/5 (3/3 parent first, 1/2 change first)  "
                         "change/parent per pair 0.875 [0.850, 0.900]")
    (line,) = perf_pairs.summarize(_pairs([0.0], [1.0], "t"), [("t", "lower")])
    assert line.endswith("change better in 0/1 (0/1 parent first, 0/0 change first)  "
                         "change/parent per pair n/a")


def test_wins_are_split_by_the_side_that_ran_first(perf_pairs, tmp_path, monkeypatch, capsys):
    # On a host where the second run of a pair is always slower, a change no
    # faster than its parent wins exactly the pairs it ran first in.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": "job_p50_ms", "better": "lower"}]}))
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        return {"job_p50_ms": 10.0 + (len(runs) % 2 == 0)}

    monkeypatch.setattr(perf_pairs, "copy_checkout", lambda root, dest: dest)
    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
            "--seed", "1", "--pairs", "4"]
    assert perf_pairs.main(argv) == 0
    assert [pathlib.Path(r).name for r in runs] == ["parent", "change", "change", "parent"] * 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert "change better in 2/4 (0/2 parent first, 2/2 change first)" in last


def test_copy_leaves_out_build_leftovers(perf_pairs, tmp_path):
    root = tmp_path / "checkout"
    for part in ("src/pkg", "src/pkg/__pycache__", "perfbench/_work/run", "tests"):
        (root / part).mkdir(parents=True)
    (root / "src/pkg/mod.py").write_text("")
    (root / "src/pkg/__pycache__/mod.pyc").write_text("")
    (root / "perfbench/run.py").write_text("")
    copy = perf_pairs.copy_checkout(str(root), str(tmp_path / "copy"))
    copied = sorted(str(p.relative_to(copy)) for p in pathlib.Path(copy).rglob("*"))
    assert copied == ["perfbench", "perfbench/run.py", "src", "src/pkg", "src/pkg/mod.py"]
