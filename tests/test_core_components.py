"""Tests for TSPN-RA components: encoders, embedders, HGAT, fusion, loss."""

import numpy as np
import oracle
import pytest

from repro.autograd import Tensor, gradcheck, pad_stack
from repro.core import (
    FusionModule,
    HGATEncoder,
    POIEmbedder,
    SpatialEncoder,
    TSPNRAConfig,
    TemporalEncoder,
    arcface_loss,
    combined_loss,
    cosine_scores,
    rank_by_cosine,
    rank_of_target,
    spatial_encoding,
)
from repro.core.tile_embedding import ImageTileEmbedder, TableTileEmbedder
from repro.data.trajectory import Trajectory, Visit
from repro.geo import BoundingBox
from repro.graphs import build_qrp_graph
from repro.imagery import ImageryCatalog, LandUseMap, TileRenderer
from repro.nn import causal_mask, key_padding_mask
from repro.spatial import RegionQuadTree
from repro.utils import spawn


class TestConfig:
    def test_defaults_valid(self):
        TSPNRAConfig()

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(dim=30, num_heads=4)

    def test_dim_mod_four(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(dim=34, num_heads=2)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(alpha=1.0)

    def test_variant(self):
        cfg = TSPNRAConfig()
        v = cfg.variant(use_graph=False)
        assert not v.use_graph and cfg.use_graph

    def test_bad_edge_type(self):
        with pytest.raises(ValueError):
            TSPNRAConfig(drop_edge_type="river")


class TestSpatialEncoding:
    def test_shape(self):
        out = spatial_encoding(np.random.rand(7, 2), dim=32)
        assert out.shape == (7, 32)

    def test_deterministic(self):
        locs = np.array([[0.3, 0.7]])
        assert np.array_equal(spatial_encoding(locs, 32), spatial_encoding(locs, 32))

    def test_nearby_more_similar_than_far(self):
        """The Fig. 8 property: cosine similarity decays with distance."""
        anchor = spatial_encoding(np.array([[0.5, 0.5]]), 64)[0]
        near = spatial_encoding(np.array([[0.52, 0.5]]), 64)[0]
        far = spatial_encoding(np.array([[0.9, 0.1]]), 64)[0]

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        assert cos(anchor, near) > cos(anchor, far)

    def test_x_and_y_occupy_separate_halves(self):
        a = spatial_encoding(np.array([[0.2, 0.5]]), 32)[0]
        b = spatial_encoding(np.array([[0.8, 0.5]]), 32)[0]
        assert not np.allclose(a[:16], b[:16])  # x changed -> first half changes
        assert np.allclose(a[16:], b[16:])  # y same -> second half unchanged

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            spatial_encoding(np.zeros((1, 2)), dim=30)

    def test_module_adds_code(self):
        enc = SpatialEncoder(dim=32)
        x = Tensor(np.zeros((3, 32)), requires_grad=True)
        out = enc(x, np.random.rand(3, 2))
        assert out.shape == (3, 32)
        assert not np.allclose(out.data, 0.0)


class TestTemporalEncoder:
    def test_learnable_slots(self):
        enc = TemporalEncoder(dim=16, rng=spawn(0))
        x = Tensor(np.zeros((2, 16)))
        out = enc(x, [9.4, 21.0])
        assert out.shape == (2, 16)
        # same slot -> same code
        out2 = enc(Tensor(np.zeros((1, 16))), [9.3])
        assert np.allclose(out.data[0], out2.data[0])

    def test_grad_reaches_table(self):
        enc = TemporalEncoder(dim=16, rng=spawn(1))
        out = enc(Tensor(np.zeros((2, 16)), requires_grad=True), [1.0, 13.0])
        out.sum().backward()
        assert enc.slots.weight.grad is not None


class TestPOIEmbedder:
    def test_alpha_blend(self):
        cats = np.array([0, 0, 1])
        emb = POIEmbedder(3, 2, cats, dim=8, alpha=0.7, rng=spawn(0))
        out = emb(np.array([0, 1, 2]))
        expected = 0.7 * emb.id_table.weight.data[0] + 0.3 * emb.cate_table.weight.data[0]
        assert np.allclose(out.data[0], expected)

    def test_same_category_shares_component(self):
        cats = np.array([0, 0])
        emb = POIEmbedder(2, 1, cats, dim=8, alpha=0.5, rng=spawn(1))
        out = emb(np.array([0, 1])).data
        # difference must equal the id-embedding difference (category cancels)
        id_diff = 0.5 * (emb.id_table.weight.data[0] - emb.id_table.weight.data[1])
        assert np.allclose(out[0] - out[1], id_diff)

    def test_no_category_mode(self):
        cats = np.array([0, 1])
        emb = POIEmbedder(2, 2, cats, dim=8, use_category=False, rng=spawn(2))
        out = emb(np.array([0]))
        assert np.allclose(out.data[0], emb.id_table.weight.data[0])

    def test_category_length_validation(self):
        with pytest.raises(ValueError):
            POIEmbedder(3, 2, np.array([0]), dim=8)


def _image_embedder(dim=16, resolution=16):
    box = BoundingBox(0, 0, 10, 10)
    points = np.random.default_rng(0).uniform(0.5, 9.5, (40, 2))
    tree = RegionQuadTree.build(box, points, max_depth=3, max_pois=10)
    renderer = TileRenderer(LandUseMap(bbox=box), resolution=resolution)
    catalog = ImageryCatalog(renderer).bind(tree)
    return ImageTileEmbedder(catalog, len(tree), dim, rng=spawn(3)), tree


class TestTileEmbedders:
    def test_image_embedder_shapes(self):
        emb, tree = _image_embedder()
        out = emb.all_embeddings()
        assert out.shape == (len(tree), 16)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)

    def test_embeddings_spread_after_centering(self):
        emb, tree = _image_embedder()
        out = emb.all_embeddings().data
        cos = out @ out.T
        off = cos[~np.eye(len(out), dtype=bool)]
        assert abs(off.mean()) < 0.3  # no positive-cone collapse

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            _image_embedder(resolution=12)

    def test_table_embedder(self):
        emb = TableTileEmbedder(10, 8, rng=spawn(4))
        out = emb.all_embeddings()
        assert out.shape == (10, 8)
        assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0)

    def test_grad_flows_through_cnn(self):
        emb, tree = _image_embedder()
        emb.all_embeddings().sum().backward()
        assert emb.conv1.weight.grad is not None
        assert emb.project.weight.grad is not None


class TestHGAT:
    def _graph(self):
        box = BoundingBox(0, 0, 10, 10)
        rng = np.random.default_rng(1)
        points = rng.uniform(0.5, 9.5, (60, 2))
        tree = RegionQuadTree.build(box, points, max_depth=4, max_pois=10)
        leaves = tree.leaves()
        adjacency = {(min(a, b), max(a, b)) for a, b in zip(leaves, leaves[1:])}
        history = [Trajectory(1, [Visit(p, float(p)) for p in range(10)])]
        return build_qrp_graph(tree, adjacency, history)

    def test_output_shape(self):
        qrp = self._graph()
        enc = HGATEncoder(dim=8, num_layers=2, rng=spawn(5))
        h0 = Tensor(np.random.default_rng(2).normal(size=(qrp.graph.num_nodes, 8)))
        out = enc(qrp, h0)
        assert out.shape == (qrp.graph.num_nodes, 8)

    def test_grad_flows(self):
        qrp = self._graph()
        enc = HGATEncoder(dim=8, num_layers=1, rng=spawn(6))
        h0 = Tensor(np.random.default_rng(3).normal(size=(qrp.graph.num_nodes, 8)), requires_grad=True)
        enc(qrp, h0).sum().backward()
        assert h0.grad is not None and np.abs(h0.grad).sum() > 0

    def test_messages_respect_graph(self):
        """An isolated node's output must not depend on others' features."""
        from repro.graphs import HeteroGraph, QRPGraph

        g = HeteroGraph()
        g.add_node("tile", 0)
        g.add_node("tile", 1)
        g.add_node("tile", 2)
        g.add_edge("road", 0, 1)  # node 2 isolated
        qrp = QRPGraph(g, [0, 1, 2], [0, 1, 2], [], [], {0, 1})
        enc = HGATEncoder(dim=8, num_layers=1, rng=spawn(7))
        base = np.random.default_rng(4).normal(size=(3, 8))
        changed = base.copy()
        changed[0] += 10.0
        out_a = enc(qrp, Tensor(base)).data[2]
        out_b = enc(qrp, Tensor(changed)).data[2]
        assert np.allclose(out_a, out_b)


def _fusion_batch(fusion, sequences, histories):
    """Right-pad per-sample sequences and knowledge, run ``forward_batch``."""
    dim = sequences[0].shape[1]
    positions = np.asarray([s.shape[0] for s in sequences]) - 1
    padded = pad_stack(sequences, dim)
    causal = causal_mask(padded.shape[1])[None, None, :, :]
    counts = [0 if h is None else h.shape[0] for h in histories]
    if not max(counts):
        return fusion.forward_batch(padded, positions, causal)
    mask = key_padding_mask(counts, max(counts))
    return fusion.forward_batch(
        padded,
        positions,
        causal,
        pad_stack(histories, dim),
        mask[:, None, None, :],
        (~mask.all(axis=1))[:, None, None],
    )


def _assert_rows_match_oracle(fusion, out, sequences, histories):
    assert out.shape == (len(sequences), sequences[0].shape[1])
    for row, sequence, history in zip(out.data, sequences, histories):
        expected = oracle.fusion_forward(fusion, sequence, history).data
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)


class TestFusion:
    def test_output_is_vector(self):
        fusion = FusionModule(dim=16, num_heads=2, num_layers=2, rng=spawn(8))
        fusion.eval()
        rng = np.random.default_rng(5)
        sequences = [Tensor(rng.normal(size=(n, 16))) for n in (6, 3, 1)]
        histories = [Tensor(rng.normal(size=(9, 16))), None, Tensor(rng.normal(size=(2, 16)))]
        out = _fusion_batch(fusion, sequences, histories)
        _assert_rows_match_oracle(fusion, out, sequences, histories)

    def test_handles_no_history(self):
        fusion = FusionModule(dim=16, num_heads=2, num_layers=1, rng=spawn(9))
        fusion.eval()
        rng = np.random.default_rng(7)
        sequences = [Tensor(rng.normal(size=(n, 16))) for n in (4, 2)]
        out = _fusion_batch(fusion, sequences, [None, None])
        _assert_rows_match_oracle(fusion, out, sequences, [None, None])

    def test_causality(self):
        """A sample's output reads its own real positions only: a
        single-element sequence padded beside a longer one matches the
        unbatched reference, and changing its padded tail changes
        nothing."""
        fusion = FusionModule(dim=16, num_heads=2, num_layers=1, rng=spawn(10))
        fusion.eval()
        rng = np.random.default_rng(8)
        sequences = [Tensor(rng.normal(size=(1, 16))), Tensor(rng.normal(size=(5, 16)))]
        out = _fusion_batch(fusion, sequences, [None, None])
        _assert_rows_match_oracle(fusion, out, sequences, [None, None])
        padded = pad_stack(sequences, 16)
        padded.data[0, 1:] = rng.normal(size=(4, 16))
        causal = causal_mask(5)[None, None, :, :]
        perturbed = fusion.forward_batch(padded, np.array([0, 4]), causal)
        np.testing.assert_array_equal(perturbed.data, out.data)


class TestLosses:
    def _setup(self):
        rng = np.random.default_rng(9)
        out = Tensor(rng.normal(size=8), requires_grad=True)
        cands = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        return out, cands

    def test_cosine_scores_bounds(self):
        out, cands = self._setup()
        scores = cosine_scores(out, cands).data
        assert np.all(scores <= 1.0 + 1e-9) and np.all(scores >= -1.0 - 1e-9)

    def test_loss_positive(self):
        out, cands = self._setup()
        loss = arcface_loss(out, cands, 2)
        assert loss.item() > 0

    def test_perfect_alignment_lower_loss(self):
        rng = np.random.default_rng(10)
        cands = Tensor(rng.normal(size=(5, 8)))
        aligned = Tensor(cands.data[2].copy(), requires_grad=True)
        anti = Tensor(-cands.data[2], requires_grad=True)
        assert arcface_loss(aligned, cands, 2).item() < arcface_loss(anti, cands, 2).item()

    def test_margin_increases_loss(self):
        out, cands = self._setup()
        no_margin = arcface_loss(out, cands, 1, margin=0.0).item()
        with_margin = arcface_loss(out, cands, 1, margin=0.4).item()
        assert with_margin > no_margin

    def test_target_index_validation(self):
        out, cands = self._setup()
        with pytest.raises(IndexError):
            arcface_loss(out, cands, 7)

    def test_gradient_pulls_toward_target(self):
        """One gradient step should raise the target's cosine score."""
        rng = np.random.default_rng(11)
        out = Tensor(rng.normal(size=8), requires_grad=True)
        cands = Tensor(rng.normal(size=(5, 8)))
        before = cosine_scores(out, cands).data[3]
        loss = arcface_loss(out, cands, 3)
        loss.backward()
        out2 = Tensor(out.data - 0.1 * out.grad)
        after = cosine_scores(out2, cands).data[3]
        assert after > before

    def test_combined_loss_weighting(self):
        a, b = Tensor(np.array(2.0)), Tensor(np.array(3.0))
        assert combined_loss(a, b, beta=2.0).item() == pytest.approx(7.0)


class TestRanking:
    def test_rank_by_cosine_orders(self):
        out = np.array([1.0, 0.0])
        cands = np.array([[0.0, 1.0], [1.0, 0.1], [-1.0, 0.0]])
        order = rank_by_cosine(out, cands)
        assert order[0] == 1 and order[-1] == 2

    def test_rank_of_target(self):
        assert rank_of_target([7, 3, 9], 3) == 2
        assert rank_of_target([7, 3, 9], 42) == 4  # |R| + 1
