"""Smoke test of ``tests/learning_probe.py`` at two episodes, so the
probe behind the training acceptance runs stays runnable."""

import json

import pytest

import learning_probe


def test_probe_prints_first_and_last_window_per_seed(capsys):
    assert learning_probe.main(["--seeds", "0", "1", "--episodes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed first2 last2"
    rows = [line.split() for line in lines[1:3]]
    assert [row[0] for row in rows] == ["0", "1"]
    assert all(float(v) > 0.0 for row in rows for v in row[1:])
    assert lines[3].startswith("mean last2 ")


def test_episode_sums_match_the_run_summary(tmp_path):
    sums = learning_probe.probe(0, 2, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())["summary"]
    assert len(sums) == 2
    assert sums[-1] == pytest.approx(summary["cumulative_sum_aoi_last"],
                                     rel=1e-12)
