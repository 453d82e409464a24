"""Message-passing scorer: unit ops, composition, invariance, gradients."""

import numpy as np
import pytest

from geomimic.geometry import KernelKind
from geomimic.network import (
    GraphStructureError,
    NetParams,
    Workspace,
    backward_batch,
    entity_wiring,
    forward_batch,
    graph_from_entities,
)
from reference import aggregate, embed, gru_update, message, score, score_grads

HIDDEN = 8
DIM = 6

ENTITY_SIZES = {
    KernelKind.P2P: (1, 1),
    KernelKind.P2L: (1, 2),
    KernelKind.L2L: (2, 2),
    KernelKind.P2C: (1, 5),
}


def random_graph(kind, rng, dim=DIM):
    """(nodes, edges) of one random graph of ``kind``."""
    ents = [rng.normal(size=(s, dim)) for s in ENTITY_SIZES[kind]]
    return graph_from_entities(kind, ents)


def random_params(rng, hidden=HIDDEN, dim=DIM):
    return NetParams.init_random(hidden, dim, rng)


def reference_forward(nodes, edges, params, rounds):
    """Score recomputed by composing the single-sample building blocks."""
    h = [embed(x, params) for x in nodes]
    for _ in range(rounds):
        incoming = [[] for _ in range(len(h))]
        for src, dst in edges:
            incoming[dst].append(message(h[src], h[dst], params))
        new_h = []
        for i, msgs in enumerate(incoming):
            stack = np.array(msgs).reshape(len(msgs), -1) if msgs else np.zeros((0, len(h[i])))
            new_h.append(gru_update(h[i], aggregate(stack), params))
        h = new_h
    pooled = np.sum(h, axis=0)
    act = np.tanh(params.w_read1 @ pooled + params.b_read1)
    return float((params.w_read2 @ act + params.b_read2)[0])


class TestGraphConstruction:
    def test_edges_cross_entities_only(self):
        rng = np.random.default_rng(0)
        _, edges = random_graph(KernelKind.P2L, rng)
        # point node 0, segment nodes 1-2: no edge inside the segment
        edge_set = {tuple(e) for e in edges}
        assert edge_set == {(0, 1), (0, 2), (1, 0), (2, 0)}

    def test_node_counts_enforced(self):
        rng = np.random.default_rng(1)
        with pytest.raises(GraphStructureError):
            graph_from_entities(KernelKind.P2P, [rng.normal(size=(1, DIM))] * 3)
        with pytest.raises(GraphStructureError):
            graph_from_entities(KernelKind.P2C, [rng.normal(size=(1, DIM))] * 2)

    @pytest.mark.parametrize("kind, sizes", [(KernelKind.P2L, (2, 1)), (KernelKind.P2C, (2, 4))])
    def test_entity_sizes_enforced(self, kind, sizes):
        # the node total fits the kind, the split into entities does not
        rng = np.random.default_rng(3)
        with pytest.raises(GraphStructureError, match=f"{kind.value} graph needs entities of"):
            graph_from_entities(kind, [rng.normal(size=(s, DIM)) for s in sizes])

    def test_mixed_widths_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(GraphStructureError):
            graph_from_entities(
                KernelKind.P2P, [rng.normal(size=(1, 4)), rng.normal(size=(1, 5))]
            )

    def test_empty_entity_rejected(self):
        with pytest.raises(GraphStructureError):
            graph_from_entities(KernelKind.P2P, [np.zeros((0, DIM)), np.zeros((1, DIM))])


class TestUnitOps:
    def test_embed_zero_params(self):
        params = NetParams.zeros(HIDDEN, DIM)
        assert embed(np.ones(DIM), params) == pytest.approx(np.zeros(HIDDEN))

    def test_embed_identity_slice(self):
        params = NetParams.zeros(DIM, DIM)
        params.w_in[...] = np.eye(DIM)
        x = np.linspace(-0.5, 0.5, DIM)
        assert embed(x, params) == pytest.approx(np.tanh(x))

    def test_embed_matches_straight_line(self):
        rng = np.random.default_rng(7)
        params = random_params(rng)
        x = rng.normal(size=DIM)
        assert embed(x, params) == pytest.approx(np.tanh(params.w_in @ x + params.b_in))

    def test_message_zero_params(self):
        params = NetParams.zeros(HIDDEN, DIM)
        out = message(np.ones(HIDDEN), np.ones(HIDDEN), params)
        assert out == pytest.approx(np.zeros(HIDDEN))

    def test_message_directional(self):
        # direction matters: swapping endpoints changes the message
        rng = np.random.default_rng(3)
        unequal = 0
        for _ in range(10):
            params = random_params(rng)
            hi, hj = rng.normal(size=HIDDEN), rng.normal(size=HIDDEN)
            if not np.allclose(message(hi, hj, params), message(hj, hi, params)):
                unequal += 1
        assert unequal >= 9

    def test_aggregate_empty_single_cancel(self):
        m = np.arange(HIDDEN, dtype=float)
        assert aggregate(np.zeros((0, HIDDEN))) == pytest.approx(np.zeros(HIDDEN))
        assert aggregate(m[None, :]) == pytest.approx(m)
        assert aggregate(np.stack([m, -m])) == pytest.approx(np.zeros(HIDDEN))

    def test_gru_zero_fixed_point(self):
        params = NetParams.zeros(HIDDEN, DIM)
        out = gru_update(np.zeros(HIDDEN), np.zeros(HIDDEN), params)
        assert out == pytest.approx(np.zeros(HIDDEN))

    def test_gru_closed_update_gate_keeps_state(self):
        rng = np.random.default_rng(4)
        params = random_params(rng)
        params.b_z[...] = -40.0  # update gate ~ 0 regardless of input
        h = rng.normal(size=HIDDEN)
        out = gru_update(h, rng.normal(size=HIDDEN), params)
        assert out == pytest.approx(h, abs=1e-12)

    def test_gru_matches_scalar_reimplementation(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, hidden=4)
        h, m = rng.normal(size=4), rng.normal(size=4)
        cat = np.concatenate([h, m])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expect = np.empty(4)
        z = np.array([sig(params.w_z[i] @ cat + params.b_z[i]) for i in range(4)])
        r = np.array([sig(params.w_r[i] @ cat + params.b_r[i]) for i in range(4)])
        rh_cat = np.concatenate([r * h, m])
        for i in range(4):
            h_cand = np.tanh(params.w_h[i] @ rh_cat + params.b_h[i])
            expect[i] = (1.0 - z[i]) * h[i] + z[i] * h_cand
        assert gru_update(h, m, params) == pytest.approx(expect, abs=1e-12)


class TestForward:
    def test_zero_params_zero_score(self):
        rng = np.random.default_rng(5)
        params = NetParams.zeros(HIDDEN, DIM)
        for kind in KernelKind:
            assert score(*random_graph(kind, rng), params) == 0.0

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_matches_composed_building_blocks(self, kind, rounds):
        rng = np.random.default_rng(6)
        params = random_params(rng)
        g = random_graph(kind, rng)
        assert score(*g, params, rounds) == pytest.approx(
            reference_forward(*g, params, rounds), abs=1e-12
        )

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_permutation_invariant(self, kind):
        rng = np.random.default_rng(8)
        params = random_params(rng)
        nodes, edges = random_graph(kind, rng)
        base = score(nodes, edges, params)
        n = nodes.shape[0]
        for _ in range(20):
            perm = rng.permutation(n)
            inv = np.empty(n, dtype=int)
            inv[perm] = np.arange(n)
            assert score(nodes[perm], inv[edges], params) == pytest.approx(base, abs=1e-9)

    def test_handles_two_to_seven_nodes(self):
        # same params score any graph size: grouping drives the wiring
        rng = np.random.default_rng(9)
        params = random_params(rng)
        for extra in range(6):
            nodes = np.vstack([rng.normal(size=(1, DIM)), rng.normal(size=(1 + extra, DIM))])
            assert np.isfinite(score(nodes, entity_wiring((1, 1 + extra)), params))

    def test_grouping_changes_score(self):
        # regrouping the same four features rewires the graph and must
        # generally change the score: the operator is not associative
        # over entity structure
        rng = np.random.default_rng(10)
        differ = 0
        for _ in range(10):
            params = random_params(rng)
            nodes = rng.normal(size=(4, DIM))
            a = score(nodes, entity_wiring((1, 3)), params)
            b = score(nodes, entity_wiring((3, 1)), params)
            if abs(a - b) > 1e-6:
                differ += 1
        assert differ >= 9

    def test_deterministic_bits(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        g = random_graph(KernelKind.L2L, rng)
        assert score(*g, params) == score(*g, params)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        params = random_params(rng)
        graphs = [random_graph(KernelKind.P2P, rng) for _ in range(7)]
        nodes = np.stack([g_nodes for g_nodes, _ in graphs])
        ws = Workspace(*nodes.shape, graphs[0][1], HIDDEN, 3)
        scores = forward_batch(nodes, params, ws)
        singles = [score(*g, params) for g in graphs]
        assert scores == pytest.approx(singles, abs=1e-12)


def fd_gradients(value_fn, params, picks_per_block, rng, eps=1e-5):
    """Central finite differences on a sample of entries per block."""
    out = {}
    for name, block in params.blocks().items():
        flat_size = block.size
        picks = rng.choice(flat_size, size=min(picks_per_block, flat_size), replace=False)
        vals = []
        for k in picks:
            plus = params.copy()
            plus.blocks()[name].reshape(-1)[k] += eps
            minus = params.copy()
            minus.blocks()[name].reshape(-1)[k] -= eps
            vals.append((value_fn(plus) - value_fn(minus)) / (2.0 * eps))
        out[name] = (picks, np.array(vals))
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name, (picks, nums) in numeric.items():
        anas = analytic.blocks()[name].reshape(-1)[picks]
        for num, ana in zip(nums, anas):
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(13)
        params = random_params(rng)
        g = random_graph(KernelKind.P2P, rng)
        grads = score_grads(*g, params, 0.0)
        assert np.all(grads.vector == 0.0)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(14)
        worst = 0.0
        for seed in range(5):
            prng = np.random.default_rng(seed)
            params = random_params(prng)
            g = random_graph(kind, prng)
            grads = score_grads(*g, params, 1.0)
            numeric = fd_gradients(lambda p: score(*g, p), params, 3, rng)
            worst = max(worst, max_rel_error(grads, numeric))
        assert worst < 1e-4

    def test_zero_rounds_gradcheck(self):
        # no message passing: readout of the embeddings only
        rng = np.random.default_rng(20)
        params = random_params(rng)
        g = random_graph(KernelKind.P2C, rng)
        grads = score_grads(*g, params, 1.0, rounds=0)
        numeric = fd_gradients(lambda p: score(*g, p, rounds=0), params, 3, rng)
        assert max_rel_error(grads, numeric) < 1e-4

    def test_upstream_scales_linearly(self):
        rng = np.random.default_rng(15)
        params = random_params(rng)
        g = random_graph(KernelKind.P2L, rng)
        g1 = score_grads(*g, params, 1.0).vector
        g3 = score_grads(*g, params, 3.0).vector
        assert g3 == pytest.approx(3.0 * g1, abs=1e-12)

    def test_duplicate_node_graph_gradcheck(self):
        # identical nodes collapse many intermediate values; the reverse
        # pass must still match finite differences there
        rng = np.random.default_rng(16)
        params = random_params(rng)
        x = rng.normal(size=(1, DIM))
        g = graph_from_entities(KernelKind.P2P, [x, x.copy()])
        grads = score_grads(*g, params, 1.0)
        numeric = fd_gradients(lambda p: score(*g, p), params, 3, rng)
        assert max_rel_error(grads, numeric) < 1e-4


def edge_free_graph(rng):
    # one entity: its nodes share no edge, so messages never flow
    return rng.normal(size=(3, DIM)), entity_wiring((3,))


def duplicate_edge_graph(rng):
    # edge (0, 1) listed twice: node 1 receives the same message twice
    nodes, edges = random_graph(KernelKind.P2L, rng)
    return nodes, np.vstack([edges, edges[:1]])


class TestDegenerateWiring:
    @pytest.mark.parametrize("make", [edge_free_graph, duplicate_edge_graph])
    def test_forward_matches_building_blocks(self, make):
        rng = np.random.default_rng(30)
        params = random_params(rng)
        g = make(rng)
        assert score(*g, params) == pytest.approx(reference_forward(*g, params, 3), abs=1e-12)

    @pytest.mark.parametrize("make", [edge_free_graph, duplicate_edge_graph])
    def test_gradcheck(self, make):
        rng = np.random.default_rng(31)
        params = random_params(rng)
        g = make(rng)
        grads = score_grads(*g, params, 1.0)
        numeric = fd_gradients(lambda p: score(*g, p), params, 3, rng)
        assert max_rel_error(grads, numeric) < 1e-4


class TestWorkspace:
    def batch(self, rng):
        graphs = [random_graph(KernelKind.P2C, rng) for _ in range(5)]
        return np.stack([nodes for nodes, _ in graphs]), graphs[0][1]

    def test_reuse_is_bit_identical_to_fresh_calls(self):
        rng = np.random.default_rng(33)
        nodes, edges = self.batch(rng)
        params = random_params(rng)
        upstream = rng.normal(size=len(nodes))
        ws = Workspace(len(nodes), nodes.shape[1], DIM, edges, HIDDEN, 3)
        for _ in range(2):
            scores = forward_batch(nodes, params, ws)
            assert scores is ws.scores
            grads = backward_batch(ws, params, upstream)
            fresh = Workspace(len(nodes), nodes.shape[1], DIM, edges, HIDDEN, 3)
            fresh_scores = forward_batch(nodes, params, fresh)
            fresh_grads = backward_batch(fresh, params, upstream)
            assert np.array_equal(scores, fresh_scores)
            assert np.array_equal(grads.vector, fresh_grads.vector)
            # a gradient step between calls, as in training
            params.vector -= 0.1 * grads.vector

    def test_shape_or_wiring_mismatch_rejected(self):
        rng = np.random.default_rng(34)
        nodes, edges = self.batch(rng)
        params = random_params(rng)
        ws = Workspace(len(nodes), nodes.shape[1], DIM, edges, HIDDEN, 3)
        with pytest.raises(ValueError, match="workspace wants"):
            forward_batch(nodes[:4], params, ws)
        with pytest.raises(ValueError, match="workspace wants"):
            forward_batch(nodes, random_params(rng, hidden=HIDDEN + 1), ws)
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            Workspace(len(nodes), nodes.shape[1], DIM, edges, HIDDEN, -1)


class TestParamsIO:
    def test_copy_is_deep(self):
        rng = np.random.default_rng(18)
        params = random_params(rng)
        clone = params.copy()
        clone.w_in[0, 0] += 1.0
        assert params.w_in[0, 0] != clone.w_in[0, 0]
