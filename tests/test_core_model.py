"""Integration tests for the full TSPN-RA model and its ablations."""

import numpy as np
import oracle
import pytest

from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.train import TrainConfig, Trainer
from repro.utils import spawn

CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2)


@pytest.fixture(scope="module")
def tiny():
    """One tiny dataset shared by all tests in this module."""
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=0)
    return dataset, splits


class TestForward:
    def test_embeddings_shapes(self, tiny):
        dataset, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(0))
        tiles, pois = model.compute_embeddings()
        assert tiles.shape == (len(dataset.quadtree), 16)
        assert pois.shape == (len(dataset.city.pois), 16)

    def test_loss_finite(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(1))
        tiles, pois = model.compute_embeddings()
        loss = model.loss_sample(splits.train[0], tiles, pois)
        assert np.isfinite(loss.item())

    def test_backward_touches_all_component_kinds(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(2))
        tiles, pois = model.compute_embeddings()
        sample = next(s for s in splits.train if s.history)
        model.loss_sample(sample, tiles, pois).backward()
        grads = {name: p.grad for name, p in model.named_parameters()}
        assert grads["tile_embedder.conv1.weight"] is not None
        assert grads["poi_embedder.id_table.weight"] is not None
        assert any(
            g is not None for n, g in grads.items() if n.startswith("fusion_tile")
        )
        assert any(g is not None for n, g in grads.items() if n.startswith("hgat"))

    def test_predict_structure(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(3))
        model.eval()
        result = model.predict(splits.test[0])
        assert result.ranked_tiles[0] in model.leaf_ids
        assert len(set(result.ranked_tiles)) == len(model.leaf_ids)
        assert result.poi_rank >= 1
        # candidates come only from the top-K tiles
        allowed = set()
        for tile in result.ranked_tiles[: model.config.top_k]:
            allowed.update(model.tile_system.pois_in_leaf(tile))
        assert set(result.ranked_pois).issubset(allowed)

    def test_graph_cache_reused(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(4))
        sample = next(s for s in splits.train if s.history)
        tiles, pois = model.compute_embeddings()
        model.encode_batch([sample], tiles, pois)
        size = len(model._graph_cache)
        model.encode_batch([sample], tiles, pois)
        assert len(model._graph_cache) == size
        model.clear_graph_cache()
        assert len(model._graph_cache) == 0


class TestAblations:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_imagery": False},
            {"use_graph": False},
            {"use_st_encoder": False},
            {"use_category": False},
            {"drop_edge_type": "road"},
            {"drop_edge_type": "contain"},
        ],
    )
    def test_variants_run(self, tiny, overrides):
        dataset, splits = tiny
        config = TSPNRAConfig(**CFG).variant(**overrides)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(5))
        tiles, pois = model.compute_embeddings()
        sample = next(s for s in splits.train if s.history)
        loss = model.loss_sample(sample, tiles, pois)
        assert np.isfinite(loss.item())
        model.eval()
        result = model.predict(sample)
        assert result.poi_rank >= 1
        # the batch-of-one path agrees with the per-sample reference
        expected = oracle.predict(model, sample)
        assert result.ranked_pois == expected.ranked_pois
        assert result.ranked_tiles == expected.ranked_tiles
        reference = oracle.loss_sample(model, sample, tiles, pois).item()
        assert model.loss_sample(sample, tiles, pois).item() == pytest.approx(
            reference, rel=1e-10
        )

    def test_no_two_step_ranks_all_pois(self, tiny):
        dataset, splits = tiny
        config = TSPNRAConfig(**CFG).variant(use_two_step=False)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(6))
        model.eval()
        result = model.predict(splits.test[0])
        assert len(result.ranked_pois) == len(dataset.city.pois)
        assert result.ranked_pois == oracle.predict(model, splits.test[0]).ranked_pois

    def test_no_imagery_uses_table(self, tiny):
        dataset, _ = tiny
        config = TSPNRAConfig(**CFG).variant(use_imagery=False)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(7))
        from repro.core.tile_embedding import TableTileEmbedder

        assert isinstance(model.tile_embedder, TableTileEmbedder)


class TestTraining:
    def test_loss_decreases(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(8))
        trainer = Trainer(
            model,
            TrainConfig(epochs=3, batch_size=8, lr=5e-3, max_train_samples=48, seed=0),
        )
        history = trainer.fit(splits.train)
        assert history.improved(), f"loss did not improve: {history.epoch_losses}"

    @pytest.mark.slow
    def test_trained_model_beats_random_ranker(self, tiny):
        dataset, splits = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(9))
        Trainer(
            model,
            TrainConfig(epochs=8, batch_size=8, lr=5e-3, max_train_samples=240, seed=0),
        ).fit(splits.train)
        from repro.eval import collect_ranks, mrr

        test = splits.test[:40]
        ranks = collect_ranks(model, test)
        model_mrr = mrr(ranks)
        # random ranker MRR over N items ~= H(N)/N
        n = len(dataset.city.pois)
        random_mrr = sum(1.0 / r for r in range(1, n + 1)) / n
        assert model_mrr > 1.3 * random_mrr, (model_mrr, random_mrr)
