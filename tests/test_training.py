"""Candidate enumeration, quality scoring, selection, loss and training."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from geomimic import network
from geomimic.geometry import KernelKind
from geomimic.metrics import evaluate, save_report
from geomimic.network import NetParams
from geomimic.scene import (
    CameraModel,
    DemoConfig,
    DemoSequence,
    FeatureClass,
    demo_to_json_dict,
    gen_demo,
    load_demo,
    save_demo,
)
from geomimic.training import (
    PLATEAU_EPOCHS,
    PLATEAU_RTOL,
    NoVisibleCandidatesError,
    TooFewFeaturesError,
    TrainConfig,
    TrainedKernel,
    TrainingError,
    association_error,
    enumerate_candidates,
    infer,
    load_trained,
    prepare_candidates,
    quality_score,
    save_trained,
    select_out,
    train,
)
from geomimic.training import _enumerate, _objective, _pack_candidates

from conftest import hide, make_frame, move, pixel_of, take, toy_demo
from reference import loss_and_grads


POINT, ENDPOINT, SAMPLE = FeatureClass.POINT, FeatureClass.SEGMENT_ENDPOINT, FeatureClass.CONIC_SAMPLE


def random_frame(rng, *groups):
    """A frame of random pixels and descriptors; each group is (class, ids)."""
    ids = [fid for _, group in groups for fid in group]
    classes = [cls for cls, group in groups for _ in group]
    return make_frame(
        ids, rng.uniform(50, 400, (len(ids), 2)), rng.uniform(0, 1, (len(ids), 8)), classes=classes
    )


def norms_to_errors(norms):
    return [np.array([float(n)]) for n in norms]


def candidates_on(frame, kind):
    """``prepare_candidates`` on a demo of this one frame."""
    return prepare_candidates(DemoSequence([frame], (), CameraModel(), 0, kind), kind)


class TestBuildCandidates:
    def test_p2p_pair_count(self):
        rng = np.random.default_rng(0)
        cands = candidates_on(random_frame(rng, (POINT, range(10))), KernelKind.P2P)
        assert len(cands) == 45

    def test_p2l_cross_count(self):
        rng = np.random.default_rng(1)
        feats = random_frame(rng, (POINT, range(5)), (ENDPOINT, range(10, 16)))
        cands = candidates_on(feats, KernelKind.P2L)
        assert len(cands) == 15  # 5 points x 3 segments

    def test_l2l_pair_count(self):
        rng = np.random.default_rng(2)
        feats = random_frame(rng, (ENDPOINT, range(8)))
        cands = candidates_on(feats, KernelKind.L2L)
        assert len(cands) == 6  # C(4,2) segments

    def test_p2c_cross_count(self):
        rng = np.random.default_rng(3)
        feats = random_frame(rng, (POINT, range(2)), (SAMPLE, range(10, 15)))
        cands = candidates_on(feats, KernelKind.P2C)
        assert len(cands) == 2
        assert cands[0].entities[1] == (10, 11, 12, 13, 14)

    def test_entity_grouping(self):
        rng = np.random.default_rng(4)
        feats = random_frame(rng, (POINT, [0]), (ENDPOINT, [5, 6]))
        cands = candidates_on(feats, KernelKind.P2L)
        assert cands[0].entities == ((0,), (5, 6))

    def test_too_few_features(self):
        rng = np.random.default_rng(5)
        with pytest.raises(TooFewFeaturesError):
            candidates_on(random_frame(rng, (POINT, [0])), KernelKind.P2P)

    def test_odd_endpoints_rejected(self):
        rng = np.random.default_rng(6)
        feats = random_frame(rng, (ENDPOINT, range(3)))
        with pytest.raises(TrainingError):
            candidates_on(feats, KernelKind.L2L)

    @pytest.mark.parametrize("kind, cls, ids, bad", [
        (KernelKind.P2L, FeatureClass.SEGMENT_ENDPOINT, (5, 6, 8, 9, 11), [11]),
        (KernelKind.P2L, FeatureClass.SEGMENT_ENDPOINT, (5, 7), [5, 7]),
        (KernelKind.P2C, FeatureClass.CONIC_SAMPLE, (10, 11, 12, 13, 14, 20), [20]),
        (KernelKind.P2C, FeatureClass.CONIC_SAMPLE, (10, 11, 12, 13, 15), [10, 11, 12, 13, 15]),
    ])
    def test_grouping_error_names_class_and_ids(self, kind, cls, ids, bad):
        rng = np.random.default_rng(7)
        feats = random_frame(rng, (POINT, range(2)), (cls, ids))
        with pytest.raises(TrainingError, match=re.escape(f"{cls.value} ids {bad} ")):
            candidates_on(feats, kind)


class TestQualityScore:
    def test_decreasing_trace(self):
        q = quality_score(norms_to_errors([4, 3, 2, 1]), lambda_smooth=0.0)
        assert q == pytest.approx(0.75, abs=1e-5)

    def test_constant_trace(self):
        assert quality_score(norms_to_errors([2, 2, 2])) == pytest.approx(0.0, abs=1e-9)

    def test_increasing_trace_negative(self):
        q = quality_score(norms_to_errors([1, 2, 3, 4]), lambda_smooth=0.0)
        assert q == pytest.approx(-0.75, abs=1e-5)

    def test_smoothness_penalizes_jumps(self):
        smooth = quality_score(norms_to_errors([4, 3, 2, 1]))
        jumpy = quality_score(norms_to_errors([4, 4, 4, 1]))
        assert smooth > jumpy

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.integers(2, 30)
            norms = rng.uniform(0.1, 100.0, t)
            q = quality_score(norms_to_errors(norms))
            assert -(1.0 + t) <= q <= 1.0

    def test_invisible_frames_skipped(self):
        errors = norms_to_errors([4, 3, 2, 1])
        errors.insert(2, None)
        assert quality_score(errors, lambda_smooth=0.0) == pytest.approx(0.75, abs=1e-5)

    def test_single_frame_rejected(self):
        with pytest.raises(TrainingError):
            quality_score(norms_to_errors([1.0]))


class TestSelectOut:
    def test_uniform_tie_breaks_low(self):
        g, winner = select_out(np.zeros(4))
        assert g == pytest.approx([0.25] * 4)
        assert winner == 0

    def test_log3_pair(self):
        g, winner = select_out(np.array([0.0, math.log(3.0)]))
        assert g == pytest.approx([0.25, 0.75], abs=1e-12)
        assert winner == 1

    def test_large_scores_stable(self):
        g, winner = select_out(np.array([1000.0, 1001.0]))
        sig = 1.0 / (1.0 + math.e)
        assert g == pytest.approx([sig, 1.0 - sig])
        assert winner == 1

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g, _ = select_out(rng.normal(0, 5, rng.integers(1, 40)))
            assert abs(g.sum() - 1.0) < 1e-12

    def test_confidence_is_temperature(self):
        rng = np.random.default_rng(9)
        b = rng.normal(0, 2, 12)
        g_cool, w_cool = select_out(b, alpha_conf=0.25)
        g_ref, w_ref = select_out(b / 0.25, alpha_conf=1.0)
        assert g_cool == pytest.approx(g_ref, abs=1e-12)
        assert w_cool == w_ref

    def test_invalid_inputs(self):
        with pytest.raises(TrainingError):
            select_out(np.array([]))
        with pytest.raises(TrainingError):
            select_out(np.array([1.0]), alpha_conf=0.0)


scores = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30).map(np.array)


class TestSelectOutProperties:
    @given(scores, st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_weights_are_a_distribution(self, b, alpha):
        g, _ = select_out(b, alpha)
        assert (g >= 0.0).all()
        assert abs(g.sum() - 1.0) < 1e-12

    @given(scores, st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_uniform_shift_invariant(self, b, shift):
        g, _ = select_out(b)
        g_shift, _ = select_out(b + shift)
        assert g_shift == pytest.approx(g, abs=1e-9)

    @given(st.lists(st.sampled_from([-1.0, 0.0, 2.5]), min_size=1, max_size=12).map(np.array))
    @settings(max_examples=200, deadline=None)
    def test_winner_is_lowest_index_of_the_max(self, b):
        _, winner = select_out(b)
        assert winner == min(np.flatnonzero(b == b.max()))

    @given(scores, st.floats(0.05, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_alpha_conf_is_a_temperature(self, b, alpha):
        g, winner = select_out(b, alpha)
        g_scaled, _ = select_out(b / alpha)
        assert np.array_equal(g, g_scaled)
        assert winner == select_out(b)[1]


@pytest.fixture(scope="module")
def toy_candidates():
    demo = toy_demo(n_frames=10)
    return prepare_candidates(demo, KernelKind.P2P)


class TestLoss:
    def input_dim(self, cands):
        return cands[0].graphs[0].shape[1]

    def test_uniform_selection_value(self, toy_candidates):
        # zero params give uniform weights, so the expected quality per
        # frame is the plain mean over candidates
        config = TrainConfig(alpha_gcr=0.0, alpha_rsw=0.0)
        params = NetParams.zeros(4, self.input_dim(toy_candidates))
        pack = _pack_candidates(toy_candidates, config)
        breakdown, _ = loss_and_grads(pack, params, config)
        t = len(toy_candidates[0].graphs)
        assert breakdown.value == pytest.approx(-pack.quality.mean() * t, abs=1e-9)

    def test_constant_scores_no_gcr(self, toy_candidates):
        config = TrainConfig(alpha_gcr=0.5, alpha_rsw=0.0)
        params = NetParams.zeros(4, self.input_dim(toy_candidates))
        breakdown, _ = loss_and_grads(_pack_candidates(toy_candidates, config), params, config)
        assert breakdown.gcr_term == pytest.approx(0.0, abs=1e-12)

    def test_uniform_rsw_mass(self, toy_candidates):
        # three candidates at uniform weights: 1 - 3 (1/3)^2 = 2/3 per frame
        config = TrainConfig(alpha_gcr=0.0, alpha_rsw=1.0)
        params = NetParams.zeros(4, self.input_dim(toy_candidates))
        breakdown, _ = loss_and_grads(_pack_candidates(toy_candidates, config), params, config)
        t = len(toy_candidates[0].graphs)
        assert breakdown.rsw_term == pytest.approx(t * (2.0 / 3.0), abs=1e-9)
        uniform = np.full(4, 0.25)
        assert 1.0 - float(uniform @ uniform) == pytest.approx(0.75)

    def test_gradients_match_finite_differences(self, toy_candidates):
        config = TrainConfig(seed=0)
        params = NetParams.init_random(
            8, self.input_dim(toy_candidates), np.random.default_rng(21)
        )
        pack = _pack_candidates(toy_candidates, config)
        _, grads = loss_and_grads(pack, params, config)
        rng = np.random.default_rng(22)
        eps = 1e-6
        worst = 0.0
        for name, block in params.blocks().items():
            for k in rng.choice(block.size, size=min(2, block.size), replace=False):
                plus = params.copy()
                plus.blocks()[name].reshape(-1)[k] += eps
                minus = params.copy()
                minus.blocks()[name].reshape(-1)[k] -= eps
                num = (loss_and_grads(pack, plus, config)[0].value
                       - loss_and_grads(pack, minus, config)[0].value) / (2 * eps)
                ana = grads.blocks()[name].reshape(-1)[k]
                worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
        assert worst < 1e-4


def reference_loss(candidates, params, config):
    """Per-frame select_out loop: the objective written frame by frame."""
    pack = _pack_candidates(candidates, config)
    frame_members = [[] for _ in candidates[0].graphs]
    row = 0
    for cand in candidates:
        for t, graph in enumerate(cand.graphs):
            if graph is not None:
                frame_members[t].append(row)
                row += 1
    ws = network.Workspace(*pack.nodes.shape, pack.edges, params.hidden, config.rounds)
    scores = network.forward_batch(pack.nodes, params, ws).copy()
    d_scores = np.zeros_like(scores)
    alpha = config.alpha_conf
    expected_quality = rsw = 0.0
    for members in map(np.array, frame_members):
        if members.size == 0:
            continue
        g, _ = select_out(scores[members], alpha)
        q = pack.quality[pack.cand_index[members]]
        gq = float(g @ q)
        expected_quality += gq
        d_scores[members] += -(g * (q - gq)) / alpha
        sum_g2 = float(g @ g)
        rsw += 1.0 - sum_g2
        d_scores[members] += -config.alpha_rsw * (2.0 / alpha) * g * (g - sum_g2)
    prev_rows, next_rows = pack.gcr_pairs[:, 0], pack.gcr_pairs[:, 1]
    diffs = scores[next_rows] - scores[prev_rows]
    gcr = float(diffs @ diffs)
    np.add.at(d_scores, next_rows, 2.0 * config.alpha_gcr * diffs)
    np.add.at(d_scores, prev_rows, -2.0 * config.alpha_gcr * diffs)
    value = -expected_quality + config.alpha_gcr * gcr + config.alpha_rsw * rsw
    grads = network.backward_batch(ws, params, d_scores)
    return (value, expected_quality, gcr, rsw), grads


def test_loss_ignores_b_read2_bit_for_bit():
    # The objective ignores a uniform shift of the scores, so its exact
    # b_read2 gradient is 0. It reads the scores before b_read2 is added,
    # so a finite-difference probe (gate 2's p2p setup) sees bit-equal
    # losses instead of a rounding flip.
    for seed in range(20):
        demo = gen_demo(DemoConfig(kernel_kind=KernelKind.P2P, seed=seed, n_frames=8,
                                   n_distractors=4, noise_px=0.5))
        cands = prepare_candidates(demo, KernelKind.P2P)
        config = TrainConfig(seed=seed)
        params = NetParams.init_random(config.hidden, cands[0].graphs[0].shape[1],
                                       np.random.default_rng(seed + 200))
        pack = _pack_candidates(cands, config)
        values = []
        for shift in (1e-6, -1e-6):
            shifted = params.copy()
            shifted.b_read2[0] += shift
            values.append(loss_and_grads(pack, shifted, config)[0].value)
        assert values[0] == values[1], f"seed {seed}"


def test_objective_gradient_matches_finite_differences(toy_candidates):
    # d_scores is the closed-form gradient of the loss w.r.t. each raw score
    config = TrainConfig(alpha_gcr=0.3, alpha_rsw=0.2, alpha_conf=0.7)
    pack = _pack_candidates(toy_candidates, config)
    scores = np.random.default_rng(25).normal(size=len(pack.nodes))
    _, d_scores = _objective(pack, scores, config)
    eps = 1e-6
    numeric = np.empty_like(scores)
    for i in range(scores.size):
        plus, minus = scores.copy(), scores.copy()
        plus[i] += eps
        minus[i] -= eps
        numeric[i] = (_objective(pack, plus, config)[0].value
                      - _objective(pack, minus, config)[0].value) / (2 * eps)
    assert d_scores == pytest.approx(numeric, rel=1e-6, abs=1e-8)


class TestVectorizedLoss:
    def test_matches_per_frame_reference(self):
        # frame 3 shows only points 0 and 1 (one candidate), frame 6
        # shows nothing; both must match the per-frame formula
        demo = toy_demo(n_frames=10)
        for t, keep in ((3, {0, 1}), (6, set())):
            demo.frames[t] = hide(demo.frames[t], {0, 1, 2} - keep)
        cands = prepare_candidates(demo, KernelKind.P2P)
        assert sum(c.graphs[3] is not None for c in cands) == 1
        assert all(c.graphs[6] is None for c in cands)
        config = TrainConfig(alpha_conf=0.7)
        params = NetParams.init_random(8, cands[0].graphs[0].shape[1],
                                       np.random.default_rng(23))
        breakdown, grads = loss_and_grads(_pack_candidates(cands, config), params, config)
        ref_terms, ref_grads = reference_loss(cands, params, config)
        terms = (breakdown.value, breakdown.expected_quality, breakdown.gcr_term,
                 breakdown.rsw_term)
        assert terms == pytest.approx(ref_terms, abs=1e-12)
        assert grads.vector == pytest.approx(ref_grads.vector, abs=1e-12)

    def test_pack_matches_candidate_loop(self):
        # frame 2 hides point 0 and frame 5 leaves no candidate usable, so
        # rows skip frames and one frame gets no score row
        demo = toy_demo(n_frames=8)
        demo.frames[2] = hide(demo.frames[2], {0})
        demo.frames[5] = hide(demo.frames[5], {1, 2})
        cands = prepare_candidates(demo, KernelKind.P2P)
        pack = _pack_candidates(cands, TrainConfig())
        nodes, cand_index, frame_index, pairs = reference.pack(cands)
        assert np.array_equal(pack.nodes, nodes)
        assert np.array_equal(pack.cand_index, cand_index)
        assert np.array_equal(pack.gcr_pairs, pairs)
        assert pack.n_score_rows == 7
        assert np.array_equal(np.unique(frame_index)[pack.frame_row], frame_index)


class TestTrain:
    def test_toy_demo_learns_ground_truth(self):
        # one association decreases, the others wander: the trained
        # scorer must pick the decreasing one nearly everywhere
        for seed in range(5):
            demo = toy_demo(seed=seed)
            trained = train(demo, KernelKind.P2P, TrainConfig(epochs=150, seed=seed))
            hits = 0
            for frame in demo.frames:
                result = infer(frame, trained)
                hits += result.winner_ids == frozenset(demo.ground_truth)
            assert hits / demo.n_frames >= 0.95

    def test_deterministic_per_seed(self):
        demo = toy_demo()
        cfg = TrainConfig(epochs=40, seed=3)
        t1 = train(demo, KernelKind.P2P, cfg)
        t2 = train(demo, KernelKind.P2P, TrainConfig(epochs=40, seed=3))
        assert np.array_equal(t1.params.vector, t2.params.vector)
        assert np.array_equal(t1.loss_trace, t2.loss_trace)

    def test_final_loss_below_initial(self, toy_trained):
        trace = toy_trained.loss_trace
        assert trace[-1, 1] < trace[0, 1]
        assert np.all(np.isfinite(trace))

    def test_trace_shape(self, toy_trained):
        # epochs=150 is a cap: the toy run stops on the loss plateau first
        stop = int(toy_trained.loss_trace[-1, 0])
        assert stop < 150
        assert toy_trained.loss_trace.shape == (stop + 1, 5)

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(lr=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(alpha_conf=0.0)
        with pytest.raises(TrainingError):
            TrainConfig(alpha_gcr=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("lr", "x"), ("lr", float("nan")), ("alpha_gcr", float("inf")), ("lambda_dec", None),
        ("epochs", 2.5), ("epochs", True), ("hidden", "32"), ("rounds", None),
    ])
    def test_json_value_of_wrong_type_names_its_field(self, field, value):
        with pytest.raises(TrainingError, match=f"^train config field {field} must be "):
            TrainConfig.from_json_dict({field: value})

    def test_round_trip(self, tmp_path, toy_trained):
        path = tmp_path / "kernel.json"
        save_trained(toy_trained, str(path))
        loaded = load_trained(str(path))
        assert loaded.kernel_kind == toy_trained.kernel_kind
        assert np.array_equal(loaded.params.vector, toy_trained.params.vector)
        assert loaded.config == toy_trained.config
        assert np.array_equal(loaded.loss_trace, toy_trained.loss_trace)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("block", ["w_in", "w_z", "b_read2"])
    def test_non_finite_params_rejected(self, toy_trained, block, value):
        payload = json.loads(json.dumps(toy_trained.to_json_dict()))
        payload["params"][block]["data"][0] = value
        with pytest.raises(TrainingError, match=f"block {block} holds NaN or infinite"):
            TrainedKernel.from_json_dict(payload)

    @pytest.mark.parametrize("size", [[0, 480], [640], ["a", 480], [-640, 480], [640.0, 480],
                                      [True, 480], "640x480"])
    def test_bad_image_size_rejected(self, toy_trained, size):
        payload = json.loads(json.dumps(toy_trained.to_json_dict()))
        payload["image_size"] = size
        with pytest.raises(TrainingError, match="^model field image_size must be two positive"):
            TrainedKernel.from_json_dict(payload)

    @pytest.mark.parametrize("block, shape", [
        ("w_in", [32]), ("w_in", [32, 0]), ("w_msg2", [16, 64]), ("w_z", [64, 32]),
        ("b_in", [31]), ("b_read2", [1, 1]),
    ])
    def test_misshapen_params_block_named(self, toy_trained, block, shape):
        payload = json.loads(json.dumps(toy_trained.to_json_dict()))
        entry = payload["params"][block]
        entry["shape"], entry["data"] = shape, entry["data"][: math.prod(shape)]
        with pytest.raises(ValueError, match=f"^params block {block} "):
            TrainedKernel.from_json_dict(payload)



# The bench demo sizes: p2p at 20 frames and 3 distractors, the other
# kinds at 12 and 2.
BENCH_SIZES = {KernelKind.P2P: (20, 3), KernelKind.L2L: (12, 2), KernelKind.P2C: (12, 2)}

# The float32 reverse pass against the float64 one at the same params and
# upstream gradient. Measured on the seed-0 bench demos of the three kinds
# (random init): the worst entry is off by at most 4.7e-7 of the float64
# gradient's largest entry, and the vector by at most 4.5e-7 relative in
# the 2-norm; over seeds 0-5, by at most 1.2e-6 and 6.7e-7. The bound is
# about 80 float32 epsilons (1.2e-7).
FLOAT32_GRAD_TOL = 1e-5


class TestFloat32Training:
    @pytest.mark.parametrize("kind", list(BENCH_SIZES))
    def test_reverse_pass_matches_float64(self, kind):
        n_frames, n_distractors = BENCH_SIZES[kind]
        demo = gen_demo(DemoConfig(kernel_kind=kind, seed=0, n_frames=n_frames,
                                   n_distractors=n_distractors))
        config = TrainConfig(seed=0)
        pack = _pack_candidates(prepare_candidates(demo, kind), config)
        single = NetParams.init_random(32, pack.nodes.shape[2],
                                       np.random.default_rng(0)).astype(np.float32)
        double = single.astype(np.float64)
        # Both passes get the float64 pass's upstream gradient, so they
        # differ by the arithmetic's precision alone.
        ws64 = network.Workspace(*pack.nodes.shape, pack.edges, 32, config.rounds)
        network.forward_batch(pack.nodes, double, ws64)
        _, upstream = _objective(pack, ws64.raw_scores, config)
        g64 = network.backward_batch(ws64, double, upstream).vector
        ws32 = network.Workspace(*pack.nodes.shape, pack.edges, 32, config.rounds, np.float32)
        network.forward_batch(pack.nodes, single, ws32)
        g32 = network.backward_batch(ws32, single, upstream).vector
        assert np.max(np.abs(g32 - g64)) <= FLOAT32_GRAD_TOL * np.max(np.abs(g64))
        assert np.linalg.norm(g32 - g64) <= FLOAT32_GRAD_TOL * np.linalg.norm(g64)

    def test_returns_float64_params_exact_in_float32(self, toy_trained):
        vector = toy_trained.params.vector
        assert vector.dtype == np.float64
        assert np.array_equal(vector.astype(np.float32).astype(np.float64), vector)


def p2l_frame(n_segments):
    """One point against n_segments segments: n_segments candidates."""
    rng = np.random.default_rng(24)
    ends = [(s, end) for s in range(n_segments) for end in range(2)]
    return make_frame(
        [0] + [10 + 2 * s + end for s, end in ends],
        [(320.0, 240.0)] + [(100.0 + 80.0 * s, 100.0 + 150.0 * end) for s, end in ends],
        rng.uniform(0, 1, (1 + len(ends), 8)),
        classes=[POINT] + [ENDPOINT] * len(ends),
    )


class TestInferConfidence:
    # Threshold min(2/m, 0.5 + 0.5/m): 1 for m = 1, 0.75 for m = 2, 2/m from m = 3.
    @pytest.mark.parametrize(
        "weights, low",
        [
            ([1.0], False),
            ([0.8, 0.2], False),
            ([0.7, 0.3], True),
            ([0.5, 0.5], True),
            ([0.7, 0.2, 0.1], False),
            ([0.6, 0.3, 0.1], True),
            ([0.55, 0.15, 0.15, 0.15], False),
            ([0.45, 0.35, 0.1, 0.1], True),
        ],
    )
    def test_threshold(self, monkeypatch, weights, low):
        scores = np.log(weights)
        monkeypatch.setattr(network, "forward_batch", lambda nodes, *a, **kw: scores)
        trained = TrainedKernel(KernelKind.P2L, NetParams.zeros(4, 10), TrainConfig(),
                                np.zeros((0, 5)))
        result = infer(p2l_frame(len(weights)), trained)
        assert len(result.candidates) == len(weights)
        assert result.weights == pytest.approx(weights, abs=1e-12)
        assert result.low_confidence is low


class TestInfer:
    def test_feature_order_irrelevant(self, toy_trained, toy_demo_20):
        frame = toy_demo_20.frames[5]
        base = infer(frame, toy_trained)
        flipped = infer(take(frame, slice(None, None, -1)), toy_trained)
        assert flipped.winner_ids == base.winner_ids
        assert flipped.error == pytest.approx(base.error)

    def test_winner_error_matches_pixels(self, toy_trained, toy_demo_20):
        frame = toy_demo_20.frames[3]
        result = infer(frame, toy_trained)
        px = dict(zip(frame.ids.tolist(), frame.pixels.tolist()))
        recomputed = reference.candidate_error(KernelKind.P2P, result.winner_entities, px)
        assert result.error == pytest.approx(recomputed)

    def test_weights_sum_to_one(self, toy_trained, toy_demo_20):
        result = infer(toy_demo_20.frames[0], toy_trained)
        assert abs(result.weights.sum() - 1.0) < 1e-12

    def test_occluded_ground_truth(self, toy_trained, toy_demo_20):
        frame = hide(toy_demo_20.frames[0], {0, 1})
        with pytest.raises(NoVisibleCandidatesError):
            infer(frame, toy_trained)

    def test_all_invisible(self, toy_trained, toy_demo_20):
        frame = hide(toy_demo_20.frames[0], {0, 1, 2})
        with pytest.raises(NoVisibleCandidatesError):
            infer(frame, toy_trained)

    def test_descriptor_width_mismatch_named(self):
        frame = scene_frame("p2p")
        model = random_kernel("p2p", frame)
        narrow = take(frame, slice(None))
        narrow.descriptors = narrow.descriptors[:, :8]
        with pytest.raises(TrainingError, match="10 wide .* input_dim is 18") as info:
            infer(narrow, model)
        assert not isinstance(info.value, NoVisibleCandidatesError)


def random_kernel(kind, frame):
    """An untrained scorer: weights that give distinct, uneven scores."""
    input_dim = frame.descriptors.shape[1] + 2
    params = NetParams.init_random(8, input_dim, np.random.default_rng(0))
    return TrainedKernel(KernelKind(kind), params, TrainConfig(hidden=8), np.zeros((0, 5)))


def scene_frame(kind):
    """Frame 1 of a generated demo with three distractors."""
    config = DemoConfig(kernel_kind=KernelKind(kind), seed=0, n_frames=3, n_distractors=3)
    return gen_demo(config).frames[1]


def conic_samples(frame):
    return [fid for fid, cls in zip(frame.ids.tolist(), frame.classes) if cls is SAMPLE]


def frame_variants(kind):
    """A plain frame, one with occluded members and one with degenerate geometry.

    Occlusion hides whole entities here, so grouping the visible features
    alone (what the reference does) still pairs every segment correctly.
    """
    frame = scene_frame(kind)
    if kind == "p2p":
        return [frame, hide(frame, {2}), hide(frame, {0, 3})]
    if kind == "p2l":
        degenerate = move(frame, {9: pixel_of(frame, 8)})
        return [frame, hide(frame, {3, 6, 7}), degenerate]
    if kind == "l2l":
        degenerate = move(frame, {7: pixel_of(frame, 6)})
        return [frame, hide(frame, {4, 5}), degenerate]
    samples = conic_samples(frame)
    collinear = {fid: (100.0 + 10.0 * i, 50.0 + 20.0 * i) for i, fid in enumerate(samples[5:10])}
    return [frame, hide(frame, {6, *samples[5:10]}), move(frame, collinear)]


class TestInferAgainstReference:
    # Array inference against the per-candidate loop it replaced
    # (tests/reference.py): same candidates in the same order, the same
    # weights, winner, error bits and confidence flag.
    @pytest.mark.parametrize("kind", ["p2p", "p2l", "l2l", "p2c"])
    def test_bit_identical(self, kind):
        for frame in frame_variants(kind):
            trained = random_kernel(kind, frame)
            result = infer(frame, trained)
            usable, weights, winner, error, low = reference.infer(frame, trained)
            assert result.candidates == usable
            assert np.array_equal(result.weights, weights)
            assert result.winner_entities == usable[winner]
            assert result.winner_ids == frozenset(i for e in usable[winner] for i in e)
            assert np.array_equal(result.error, error)
            assert result.low_confidence is low

    def test_degenerate_candidate_left_out(self):
        frame = frame_variants("l2l")[2]
        result = infer(frame, random_kernel("l2l", frame))
        assert all((6, 7) not in c for c in result.candidates)
        assert len(result.candidates) == 6  # C(4, 2) of the five segments


class TestAssociationError:
    # The fixed-association error equals the scalar per-candidate error of
    # tests/reference.py, bit for bit, with infer's entity order.
    @pytest.mark.parametrize("kind", ["p2p", "p2l", "l2l", "p2c"])
    def test_matches_reference(self, kind):
        kind = KernelKind(kind)
        frame = scene_frame(kind)
        px = dict(zip(frame.ids.tolist(), frame.pixels.tolist()))
        for cand in candidates_on(frame, kind):
            ids = reversed(cand.feature_ids)
            error, entities = association_error(frame, kind, ids)
            assert entities == cand.entities
            assert np.array_equal(error, reference.candidate_error(kind, entities, px))

    def test_hidden_member(self):
        frame = hide(scene_frame("l2l"), {3})
        with pytest.raises(NoVisibleCandidatesError, match=r"\[3\] of association \[0, 1, 2, 3\]"):
            association_error(frame, "l2l", (0, 1, 2, 3))

    def test_degenerate_geometry(self):
        frame = move(scene_frame("l2l"), {1: pixel_of(scene_frame("l2l"), 0)})
        with pytest.raises(NoVisibleCandidatesError, match="degenerate"):
            association_error(frame, "l2l", (0, 1, 2, 3))

    @pytest.mark.parametrize("ids", [(), (0,), (0, 1, 2), (0, 1, 99)])
    def test_not_one_candidate(self, ids):
        with pytest.raises(TrainingError):
            association_error(scene_frame("p2p"), "p2p", ids)


class TestInferPartlyHiddenEntities:
    # Entities are grouped from every observation, visible or not, so a
    # hidden endpoint or sample removes only the candidates it belongs to.
    def test_l2l_one_hidden_endpoint(self):
        frame = hide(scene_frame("l2l"), {4})
        result = infer(frame, random_kernel("l2l", frame))
        segments = [(0, 1), (2, 3), (6, 7), (8, 9)]
        expect = [(a, b) for i, a in enumerate(segments) for b in segments[i + 1:]]
        assert result.candidates == expect

    def test_l2l_no_bogus_segments(self):
        frame = hide(scene_frame("l2l"), {4, 9})
        result = infer(frame, random_kernel("l2l", frame))
        entities = {e for c in result.candidates for e in c}
        assert entities == {(0, 1), (2, 3), (6, 7)}

    def test_p2l_one_hidden_endpoint(self):
        frame = hide(scene_frame("p2l"), {7})
        result = infer(frame, random_kernel("p2l", frame))
        assert len(result.candidates) == 4 * 2  # 4 points x segments (1, 2), (8, 9)
        assert all(c[1] != (6, 7) for c in result.candidates)

    def test_p2c_one_hidden_sample(self):
        frame = scene_frame("p2c")
        samples = conic_samples(frame)
        frame = hide(frame, {samples[7]})
        result = infer(frame, random_kernel("p2c", frame))
        conics = {c[1] for c in result.candidates}
        assert tuple(samples[5:10]) not in conics
        assert tuple(samples[:5]) in conics

    def test_every_candidate_masked(self):
        frame = hide(scene_frame("l2l"), {1, 3, 5, 7, 9})
        with pytest.raises(NoVisibleCandidatesError, match="every member visible"):
            infer(frame, random_kernel("l2l", frame))


class TestCandidatesFromAllFrames:
    def test_feature_missing_from_frame_0(self):
        # ground-truth point 0 is absent from frame 0's observation list
        demo = toy_demo(n_frames=10)
        demo.frames[0] = take(demo.frames[0], demo.frames[0].ids != 0)
        cands = prepare_candidates(demo, KernelKind.P2P)
        assert [c.entities for c in cands] == [((0,), (1,)), ((0,), (2,)), ((1,), (2,))]
        assert cands[0].graphs[0] is None and cands[0].graphs[1] is not None
        trained = train(demo, KernelKind.P2P, TrainConfig(epochs=60))
        assert infer(demo.frames[5], trained).winner_ids == frozenset({0, 1})

    def test_id_with_two_classes_rejected(self):
        demo = toy_demo(n_frames=4)
        demo.frames[2].classes = (POINT, POINT, SAMPLE)
        with pytest.raises(TrainingError, match="feature id 2 "):
            prepare_candidates(demo, KernelKind.P2P)

    def test_unchanged_when_every_frame_lists_every_feature(self):
        # the demo's table lists the reference's candidates of a frame that
        # shows every feature, also when a later frame hides a target
        # endpoint or sample (a point for p2p) or does not list one at all
        for kind in KernelKind:
            demo = gen_demo(DemoConfig(kernel_kind=kind, seed=0, n_frames=6, n_distractors=2))
            from_first = reference.candidate_entities(demo.frames[0], kind)
            hidden, missing = demo.target_ids[0], demo.target_ids[-1]
            frames = list(demo.frames)
            frames[2] = hide(frames[2], {hidden})
            frames[3] = take(frames[3], frames[3].ids != missing)
            for variant in (demo, replace(demo, frames=frames)):
                assert list(enumerate_candidates(variant, kind).entities) == from_first
                cands = prepare_candidates(variant, kind)
                assert [c.entities for c in cands] == from_first
            for cand in cands:
                assert (cand.graphs[2] is None) == (hidden in cand.feature_ids)
                assert (cand.graphs[3] is None) == (missing in cand.feature_ids)

    def test_frames_of_one_scene_share_one_table(self, tmp_path):
        # generated and loaded frames list the same features, so every
        # frame, and the demo as a whole, finds the one cached table
        kind = KernelKind.L2L
        demo = gen_demo(DemoConfig(kernel_kind=kind, seed=0, n_frames=4, n_distractors=2))
        save_demo(demo, str(tmp_path / "demo.json"))
        loaded = load_demo(str(tmp_path / "demo.json"))
        table = enumerate_candidates(demo, kind)
        for frame in demo.frames + loaded.frames:
            assert _enumerate(kind, tuple(frame.ids.tolist()), frame.classes) is table
        assert enumerate_candidates(loaded, kind) is table


def workspaces(trained):
    """The network workspaces the kernel holds."""
    return [v for v in vars(trained).values() if isinstance(v, network.Workspace)]


class TestInferWorkspaces:
    def results(self, trained, frames):
        return [(r.weights, r.winner_entities) for r in (infer(f, trained) for f in frames)]

    def test_reuse_is_bit_identical_to_fresh(self):
        frame = scene_frame("l2l")
        # the second frame hides a segment: another batch shape
        frames = [frame, hide(frame, {4, 5}), frame]
        trained = random_kernel("l2l", frame)
        for _ in range(2):
            reused = self.results(trained, frames)
            fresh = [
                self.results(TrainedKernel(trained.kernel_kind, trained.params.copy(),
                                           trained.config, trained.loss_trace), [f])[0]
                for f in frames
            ]
            for (w, win), (w_fresh, win_fresh) in zip(reused, fresh):
                assert np.array_equal(w, w_fresh) and win == win_fresh
            [ws] = workspaces(trained)
            assert ws.key[0] == len(reused[-1][0]) and ws.grads is None
            # new params, same workspace
            trained.params.vector[:] += np.random.default_rng(1).normal(
                0.0, 0.1, trained.params.vector.shape
            )

    def test_cache_stays_bounded_and_forward_only(self):
        # hiding 0, 1, 2, ... of 8 points gives as many usable-candidate counts;
        # the kernel keeps one forward-only workspace, reused while the count holds
        config = DemoConfig(kernel_kind=KernelKind.P2P, seed=0, n_frames=2, n_distractors=6)
        frame = gen_demo(config).frames[1]
        trained = random_kernel("p2p", frame)
        points = sorted(frame.ids.tolist())
        for n_hidden in range(len(points) - 1):
            shown = hide(frame, set(points[:n_hidden]))
            n_usable = len(infer(shown, trained).candidates)
            [ws] = workspaces(trained)
            assert ws.key[0] == n_usable and ws.grads is None
            infer(shown, trained)
            assert workspaces(trained) == [ws]


def _plateaued(best, epoch):
    if epoch < PLATEAU_EPOCHS:
        return False
    before = best[epoch - PLATEAU_EPOCHS]
    return before - best[epoch] <= PLATEAU_RTOL * abs(before)


class TestPlateauStop:
    def test_trace_is_prefix_of_fixed_epoch_trace(self, toy_trained):
        ref_trace, _ = reference.train_fixed_epochs(
            toy_demo(), KernelKind.P2P, TrainConfig(epochs=150, seed=0)
        )
        n = len(toy_trained.loss_trace)
        assert np.array_equal(toy_trained.loss_trace, ref_trace[:n])

    def test_params_are_best_iterate_of_rows_run(self, toy_trained):
        n = len(toy_trained.loss_trace)
        _, ref_params = reference.train_fixed_epochs(
            toy_demo(), KernelKind.P2P, TrainConfig(epochs=n, seed=0)
        )
        assert np.array_equal(toy_trained.params.vector, ref_params)

    def test_rule_holds_at_last_row_only(self, toy_trained):
        best = np.minimum.accumulate(toy_trained.loss_trace[:, 1])
        last = len(best) - 1
        assert _plateaued(best, last)
        assert not any(_plateaued(best, e) for e in range(last))

    def test_config_records_rows_run(self, toy_trained):
        n = len(toy_trained.loss_trace)
        assert toy_trained.config == TrainConfig(epochs=n, seed=0)
        again = train(toy_demo(), KernelKind.P2P, toy_trained.config)
        assert np.array_equal(again.loss_trace, toy_trained.loss_trace)
        assert np.array_equal(again.params.vector, toy_trained.params.vector)
        assert again.config == toy_trained.config

    def test_run_without_plateau_fills_the_cap(self, toy_trained):
        # a cap a few epochs short of the uncapped toy run's stop ends first
        cap = len(toy_trained.loss_trace) - 5
        assert cap > PLATEAU_EPOCHS
        trained = train(toy_demo(), KernelKind.P2P, TrainConfig(epochs=cap, seed=0))
        ref_trace, ref_params = reference.train_fixed_epochs(
            toy_demo(), KernelKind.P2P, TrainConfig(epochs=cap, seed=0)
        )
        assert np.array_equal(trained.loss_trace, ref_trace)
        assert np.array_equal(trained.params.vector, ref_params)
        assert trained.config.epochs == cap

    @pytest.mark.parametrize("epochs", [150, 10])
    def test_stopping_epoch_runs_no_backward_pass(self, monkeypatch, epochs):
        # 150 ends on the plateau, 10 on the cap; either way the last
        # epoch's objective is never stepped on, so it takes no reverse pass
        calls = {"forward_batch": 0, "backward_batch": 0}

        def counted(name):
            original = getattr(network, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(network, name, counted(name))
        trained = train(toy_demo(), KernelKind.P2P, TrainConfig(epochs=epochs, seed=0))
        n = len(trained.loss_trace)
        assert n < 150 if epochs == 150 else n == epochs
        assert calls == {"forward_batch": n, "backward_batch": n - 1}

    def test_non_finite_loss_still_rejected(self):
        # a flat best loss after divergence trips the plateau rule; the
        # rows run before the stop still reach the finiteness check
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite loss"):
            train(toy_demo(), KernelKind.P2P, TrainConfig(lr=1e308, seed=0))


def test_prepare_candidates_skips_absent_members():
    demo = toy_demo(n_frames=5)
    demo.frames[3] = take(demo.frames[3], demo.frames[3].ids != 2)
    demo.frames[4] = take(demo.frames[4], [])
    cands = prepare_candidates(demo, KernelKind.P2P)
    assert [c.graphs[3] is not None for c in cands] == [True, False, False]
    assert all(c.graphs[4] is None and c.errors[4] is None for c in cands)


class TestShortLivedCandidates:
    def test_dropped_with_a_warning(self):
        demo = toy_demo(n_frames=8)
        demo.frames[1:] = [hide(f, {2}) for f in demo.frames[1:]]
        with pytest.warns(UserWarning, match=r"2 candidate.*\(0, 2\), \(1, 2\)"):
            trained = train(demo, KernelKind.P2P, TrainConfig(epochs=5))
        assert infer(demo.frames[3], trained).winner_ids == frozenset({0, 1})

    def test_none_left(self):
        demo = toy_demo(n_frames=8)
        demo.frames[1:] = [hide(f, {0, 1, 2}) for f in demo.frames[1:]]
        with pytest.raises(NoVisibleCandidatesError, match="at least 2 of 8 frames"):
            train(demo, KernelKind.P2P, TrainConfig(epochs=5))


def test_json_writers_use_one_dumps(tmp_path, toy_trained):
    # Writers emit exactly json.dumps of their payload (the C encoder).
    demo = toy_demo(n_frames=4)
    report = evaluate(demo, toy_trained)
    cases = [
        (save_demo, demo, demo_to_json_dict(demo)),
        (save_trained, toy_trained, toy_trained.to_json_dict()),
        (lambda r, path: save_report(r, path, {"seed": 3}), report,
         {**report.to_json_dict(), "config": {"seed": 3}}),
    ]
    for save, obj, payload in cases:
        path = tmp_path / "out.json"
        save(obj, str(path))
        assert path.read_text() == json.dumps(payload)
