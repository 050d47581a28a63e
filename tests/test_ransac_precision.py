"""Inlier precision of RANSAC results: the share of returned inliers that
are true inliers, reported next to recall."""

import math

import numpy as np
import pytest

from relpose.formats import emit_trial_csv
from relpose.synth import TrialRecord, inlier_precision_recall, summarize


def record(trial, precision, recall, failure=""):
    return TrialRecord(
        trial=trial, theta_rad=0.5, rot_err=0.0, t_ang_err_deg=0.0, scale_rel_err=math.nan,
        solve_ms=1.0, failure=failure, inlier_count=4, recall=recall, precision=precision,
        iterations=3,
    )


def test_hand_built_mask():
    returned = np.array([True, True, True, True, False, False])
    true = np.array([True, True, False, False, False, True])
    precision, recall = inlier_precision_recall(returned, true)
    assert precision == 0.5  # 2 of 4 returned are true inliers
    assert recall == pytest.approx(2 / 3)  # 2 of 3 true inliers returned


def test_empty_sets_give_zero():
    none = np.zeros(5, dtype=bool)
    assert inlier_precision_recall(none, np.ones(5, dtype=bool)) == (0.0, 0.0)
    assert inlier_precision_recall(np.ones(5, dtype=bool), none) == (0.0, 0.0)


def test_summary_and_csv_report_mean_precision():
    records = [record(0, 1.0, 1.0), record(1, 0.5, 0.9), record(2, 0.0, 0.0, "NoHypothesis")]
    summary = summarize(records)
    assert summary["precision"]["mean"] == 0.75
    header, *rows = emit_trial_csv(records, summary).splitlines()
    column = header.split(",").index("precision")
    assert rows[0].split(",")[column] == "1"
    mean = [row for row in rows if row.startswith("summary_mean,")][0]
    assert mean.split(",")[column] == "0.75"
