"""The paired summary that scripts/bench_pairs.py writes to BENCH_<label>.json."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(items_per_s, faults, failed=0, accuracy=0.25):
    return {"metrics": {"items_per_s": items_per_s, "ru_minflt": faults}, "failed": failed,
            "quality": {"vqa_accuracy": accuracy}}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = [run(100.0, 900), run(110.0, 800), run(120.0, 700), run(130.0, 600)]
    change = [run(150.0, 10), run(110.0, 800), run(100.0, 20), run(140.0, 30, failed=1)]
    out = bench_pairs.summarise(parent, change, {"items_per_s": "higher", "ru_minflt": "lower"})
    assert out["pairs"] == 4
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["runs"]["items_per_s"]["change_better_pairs"] == 2
    assert out["runs"]["ru_minflt"]["change_better_pairs"] == 3
    assert out["runs"]["items_per_s"]["parent"] == [100.0, 110.0, 120.0, 130.0]
    assert out["runs"]["items_per_s"]["parent_iqr"] == pytest.approx(15.0)
    assert out["median"]["parent"]["items_per_s"] == 115.0
    assert out["median"]["change"]["ru_minflt"] == 25.0


def test_quality_is_one_value_only_when_every_run_repeats_it():
    same = [run(1.0, 1), run(2.0, 2)]
    differ = [run(1.0, 1, accuracy=0.25), run(2.0, 2, accuracy=0.5)]
    out = bench_pairs.summarise(same, differ, {"items_per_s": "higher"})
    assert out["quality"] == {"parent": {"vqa_accuracy": 0.25},
                              "change": {"vqa_accuracy": [0.25, 0.5]}}


REPO = _PATH.parent.parent


@pytest.mark.parametrize("pairs, message", [
    (["eval-vqa"], "expected WORKLOAD=N"),
    (["evalvqa=2"], "expected WORKLOAD=N"),
    (["eval-vqa=two"], "expected WORKLOAD=N"),
    (["eval-vqa=-3"], "expected WORKLOAD=N"),
    (["eval-vqa=1"], "at least 2 pairs"),
    (["adapt-seq-all=2", "evalvqa=2"], "'evalvqa=2'"),
    (["eval-vqa=3", "eval-vqa=5"], "names eval-vqa twice"),
], ids=["no-count", "unknown-workload", "word-count", "negative-count", "one-pair",
        "second-entry-bad", "workload-repeated"])
def test_bad_pairs_exit_2_before_any_run(pairs, message, monkeypatch, tmp_path, capsys):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(REPO), "--change", str(REPO), "--label", "x", "--what", "x",
                          "--seed", "1", "--seconds", "1", "--pairs", *pairs])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not runs and not list(tmp_path.iterdir())


def test_pairs_parse_to_counts_per_workload():
    args = bench_pairs.parse_args(["--parent", ".", "--change", str(REPO), "--label", "x", "--what", "x",
                                   "--seed", "1", "--seconds", "1",
                                   "--pairs", "eval-vqa=3", "adapt-lora-last1=2"])
    assert args.pairs == {"eval-vqa": 3, "adapt-lora-last1": 2}
