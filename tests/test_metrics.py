"""Selection accuracy, autocorrelation consistency and report exports."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from geomimic import metrics
from geomimic.geometry import KernelKind
from geomimic.metrics import (
    CONSISTENCY_LAG,
    EvalReport,
    MetricError,
    ZeroVarianceError,
    autocorr,
    con_acc,
    evaluate,
    save_report,
    write_frame_csv,
)
from geomimic.training import NoVisibleCandidatesError, TrainedKernel, TrainingError

from conftest import hide, toy_demo

# lag-2 autocorrelation of 50 * 0.9**t over 60 frames, frozen from the
# biased-denominator formula computed independently
DECAY_CON_ACC = 0.794984150615351


class TestAccuracy:
    # evaluate's acc: the percent of frames showing the ground truth whose
    # winner id set equals it. Inference is replaced by fixed winners.
    @staticmethod
    def acc(monkeypatch, trained, demo, winners):
        """evaluate's acc when frame t's winner is ``winners[t]``, None for no winner."""
        picks = iter(winners)

        def fixed_infer(frame, trained):
            ids = next(picks)
            if ids is None:
                raise NoVisibleCandidatesError("no usable candidate")
            return SimpleNamespace(winner_ids=frozenset(ids), error=np.zeros(2))

        monkeypatch.setattr(metrics, "infer", fixed_infer)
        return evaluate(demo, trained).acc

    def test_nine_of_ten(self, monkeypatch, toy_trained):
        winners = [(0, 1)] * 9 + [(0, 2)]
        assert self.acc(monkeypatch, toy_trained, toy_demo(n_frames=10), winners) == 90.0

    def test_all_correct_order_free(self, monkeypatch, toy_trained):
        demo = replace(toy_demo(n_frames=2), ground_truth=(1, 0))
        assert self.acc(monkeypatch, toy_trained, demo, [(1, 0), (0, 1)]) == 100.0

    def test_none_counts_wrong(self, monkeypatch, toy_trained):
        assert self.acc(monkeypatch, toy_trained, toy_demo(n_frames=5), [None] * 5) == 0.0
        assert self.acc(monkeypatch, toy_trained, toy_demo(n_frames=2), [(0, 1), None]) == 50.0

    def test_empty_rejected(self, toy_trained):
        with pytest.raises(TrainingError, match="cannot score this demo"):
            evaluate(replace(toy_demo(n_frames=2), frames=[]), toy_trained)


class TestAutocorr:
    def test_ramp_lag2(self):
        assert autocorr([1, 2, 3, 4, 5, 6], 2) == pytest.approx(1.0 / 17.5, abs=1e-12)

    def test_alternating_lag2_positive(self):
        assert autocorr([1.0, -1.0] * 5, 2) > 0.5

    def test_constant_rejected(self):
        with pytest.raises(ZeroVarianceError):
            autocorr([3.0] * 10, 2)

    def test_shift_and_scale_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.normal(0, 1, rng.integers(5, 40))
            lag = int(rng.integers(1, x.size))
            base = autocorr(x, lag)
            shift = rng.normal(0, 100)
            scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 100)
            assert autocorr(scale * x + shift, lag) == pytest.approx(base, abs=1e-12)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = rng.normal(0, 1, rng.integers(4, 50))
            lag = int(rng.integers(1, x.size))
            assert abs(autocorr(x, lag)) <= 1.0 + 1e-12

    def test_invalid_lags(self):
        with pytest.raises(MetricError):
            autocorr([1.0, 2.0, 3.0], 0)
        with pytest.raises(MetricError):
            autocorr([1.0, 2.0, 3.0], 3)
        with pytest.raises(MetricError):
            autocorr([1.0, 2.0, 3.0], -1)


class TestConAcc:
    def test_constant_is_fully_consistent(self):
        assert con_acc([4.0] * 10) == 1.0

    def test_geometric_decay(self):
        norms = [50.0 * 0.9**t for t in range(60)]
        assert con_acc(norms) == pytest.approx(DECAY_CON_ACC, abs=1e-12)

    def test_iid_noise_mostly_near_zero(self):
        rng = np.random.default_rng(2)
        hits = sum(
            abs(con_acc(rng.normal(0, 1, 60))) < 0.3 for _ in range(200)
        )
        assert hits / 200 >= 0.95

    def test_short_series_rejected(self):
        with pytest.raises(MetricError):
            con_acc([1.0, 2.0])

    def test_default_lag(self):
        assert CONSISTENCY_LAG == 2
        x = [50.0 * 0.9**t for t in range(60)]
        assert con_acc(x) == autocorr(x, 2)


class TestEvaluate:
    def test_toy_demo_report(self, toy_trained, toy_demo_20):
        rep = evaluate(toy_demo_20, toy_trained)
        assert rep.acc >= 95.0
        assert rep.n_frames == 20
        assert rep.ground_truth == (0, 1)
        assert len(rep.per_frame_winners) == 20
        assert len(rep.per_frame_error_norms) == 20
        assert len(rep.per_frame_correct) == 20
        assert rep.con_acc is not None
        assert abs(rep.con_acc) <= 1.0 + 1e-12

    def test_occluded_frames_leave_denominator(self, toy_trained, toy_demo_20):
        frames = list(toy_demo_20.frames)
        for t in range(3):
            frames[t] = hide(frames[t], {0})
        demo = replace(toy_demo_20, frames=frames)
        rep = evaluate(demo, toy_trained)
        assert rep.per_frame_correct[:3] == [None, None, None]
        scored = [c for c in rep.per_frame_correct if c is not None]
        assert len(scored) == 17
        assert rep.acc == pytest.approx(100.0 * sum(scored) / 17)

    def test_kind_the_demo_cannot_build_is_rejected(self, toy_trained, toy_demo_20):
        p2l = TrainedKernel(
            KernelKind.P2L, toy_trained.params, toy_trained.config, toy_trained.loss_trace,
            toy_trained.image_size,
        )
        with pytest.raises(TrainingError, match="p2l model .* holds point features only"):
            evaluate(toy_demo_20, p2l)

    def test_frame_with_every_feature_hidden_has_no_winner(self, toy_trained, toy_demo_20):
        frames = list(toy_demo_20.frames)
        frames[4] = hide(frames[4], {0, 1, 2})
        rep = evaluate(replace(toy_demo_20, frames=frames), toy_trained)
        assert rep.per_frame_winners[4] is None
        assert rep.per_frame_winners[3] is not None


class TestReports:
    @pytest.fixture()
    def report(self):
        return EvalReport(
            acc=50.0,
            con_acc=0.9,
            n_frames=2,
            per_frame_winners=[(0, 1), None],
            per_frame_error_norms=[1.5, None],
            per_frame_correct=[True, None],
            ground_truth=(0, 1),
        )

    def test_json_round_trip(self, tmp_path, report):
        path = tmp_path / "report.json"
        save_report(report, str(path), config_echo={"seed": 3})
        data = json.loads(path.read_text())
        assert data["acc"] == 50.0
        assert data["con_acc"] == 0.9
        assert data["per_frame_winners"] == [[0, 1], None]
        assert data["config"] == {"seed": 3}

    def test_frame_csv(self, tmp_path, report):
        path = tmp_path / "frames.csv"
        write_frame_csv(report, str(path), config_echo={"seed": 3})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "frame,winner_ids,error_norm,correct"
        assert lines[2] == "0,0|1,1.5,true"
        assert lines[3] == "1,,,"
