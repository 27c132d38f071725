"""Equivalence and regression tests for the batched training path.

The contract under test: ``loss_batch`` computes the *same objective*
as summing a per-sample loss over the mini-batch — same value at equal
weights, parameter gradients equal to floating-point accumulation
order, and (with dropout disabled, the one path-dependent RNG draw)
bit-identical training trajectories through the full Trainer + Adam
loop.  For TSPN-RA the per-sample reference is the independent oracle
in ``tests/oracle.py`` (the model's own ``loss_sample`` is a batch of
one); the baselines keep their own per-sample losses.
"""

import numpy as np
import oracle
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.baselines import make_baseline
from repro.core import TSPNRA, TSPNRAConfig
from repro.data import build_dataset, make_samples, split_samples
from repro.data.trajectory import PredictionSample, Visit
from repro.nn import Embedding, Linear, Module
from repro.serve.protocol import PredictorBase
from repro.train import TrainConfig, Trainer
from repro.utils import spawn

# dropout=0: dropout masks are drawn in path-dependent order (one big
# (B, L, dim) draw batched vs many small draws per sample), so it is
# excluded from equivalence checks — every other component must match.
CFG = dict(dim=16, fusion_layers=1, hgat_layers=1, top_k=4, num_heads=2, dropout=0.0)


@pytest.fixture(scope="module")
def tiny():
    dataset = build_dataset("nyc", seed=0, scale=0.12, imagery_resolution=16)
    splits = split_samples(make_samples(dataset, last_only=False), seed=0)
    locations = np.array(
        [dataset.spec.bbox.normalize(x, y) for x, y in dataset.city.pois.xy]
    )
    return dataset, splits, locations


def _mixed_batch(splits):
    """A batch exercising every edge: real histories (several samples
    sharing one), empty histories, and length-1 prefixes."""
    with_history = [s for s in splits.train if s.history]
    without = [s for s in splits.train if not s.history]
    length_one = next(s for s in splits.train if len(s.prefix) == 1)
    batch = with_history[:5] + without[:2] + [length_one]
    assert any(not s.history for s in batch)
    assert any(len(s.prefix) == 1 for s in batch)
    assert len({s.history_key for s in batch}) < len(batch)  # shared history
    return batch


def _own_loss_sample(model, sample, *shared):
    return model.loss_sample(sample, *shared)


def _grad_equivalence(model, batch, shared_fn, atol=1e-8, reference=_own_loss_sample):
    """Assert loss_batch gradients match summed per-sample gradients."""
    total = None
    for sample in batch:
        loss = reference(model, sample, *shared_fn())
        total = loss if total is None else total + loss
    total.backward()
    per_sample = {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }
    model.zero_grad()
    batched = model.loss_batch(batch, *shared_fn())
    assert batched.item() == pytest.approx(total.item(), rel=1e-10)
    batched.backward()
    for name, p in model.named_parameters():
        expected = per_sample[name]
        if expected is None and p.grad is None:
            continue
        assert p.grad is not None, f"batched path dropped gradient for {name}"
        expected = np.zeros_like(p.grad) if expected is None else expected
        np.testing.assert_allclose(
            p.grad, expected, atol=atol, rtol=0, err_msg=f"gradient mismatch: {name}"
        )


class TestGradientEquivalence:
    def test_tspnra(self, tiny):
        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(2))
        shared = model.compute_embeddings()
        _grad_equivalence(
            model, _mixed_batch(splits), lambda: shared, reference=oracle.loss_sample
        )

    def test_tspnra_no_graph_ablation(self, tiny):
        dataset, splits, _ = tiny
        config = TSPNRAConfig(**CFG).variant(use_graph=False)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(3))
        shared = model.compute_embeddings()
        _grad_equivalence(
            model, _mixed_batch(splits), lambda: shared, reference=oracle.loss_sample
        )

    def test_gru(self, tiny):
        dataset, splits, locations = tiny
        model = make_baseline("GRU", len(dataset.city.pois), locations, dim=16, rng=spawn(4))
        _grad_equivalence(model, _mixed_batch(splits), tuple)

    def test_hmt_grn(self, tiny):
        dataset, splits, locations = tiny
        model = make_baseline(
            "HMT-GRN", len(dataset.city.pois), locations, dim=16, rng=spawn(5)
        )
        _grad_equivalence(model, _mixed_batch(splits), tuple)

    def test_fallback_is_the_same_graph(self, tiny):
        """A baseline without a batched trunk uses the PredictorBase
        fallback: bit-identical to the per-sample path by construction."""
        dataset, splits, locations = tiny
        model = make_baseline(
            "DeepMove", len(dataset.city.pois), locations, dim=16, rng=spawn(6)
        )
        assert type(model).loss_batch is PredictorBase.loss_batch
        batch = _mixed_batch(splits)
        total = None
        for sample in batch:
            loss = model.loss_sample(sample)
            total = loss if total is None else total + loss
        assert model.loss_batch(batch).item() == total.item()

    @pytest.mark.parametrize("drop", ["road", "contain", "branch"])
    def test_drop_edge_ablations(self, tiny, drop):
        dataset, splits, _ = tiny
        config = TSPNRAConfig(**CFG).variant(drop_edge_type=drop)
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(10))
        shared = model.compute_embeddings()
        _grad_equivalence(
            model, _mixed_batch(splits), lambda: shared, reference=oracle.loss_sample
        )

    def test_edge_free_graph_matches_per_sample_identity(self, tiny):
        """A single-leaf history with contain edges dropped yields a
        graph with nodes but no edges; the per-graph HGAT short-circuits
        it to the identity, and the packed path must agree instead of
        zeroing its knowledge rows."""
        from repro.data.trajectory import Trajectory

        dataset, splits, _ = tiny
        config = TSPNRAConfig(**CFG).variant(drop_edge_type="contain")
        model = TSPNRA.from_dataset(dataset, config, rng=spawn(11))
        leaf, pois = next(
            (leaf, model.tile_system.pois_in_leaf(leaf))
            for leaf in model.leaf_ids
            if len(model.tile_system.pois_in_leaf(leaf)) >= 2
        )
        donor = splits.train[0]
        crafted = PredictionSample(
            user_id=99,
            history=[
                Trajectory(user_id=99, visits=[Visit(p, float(i)) for i, p in enumerate(pois[:2])])
            ],
            prefix=donor.prefix,
            target=donor.target,
            history_key=(99, 0),
        )
        qrp, _ = model._qrp_for(crafted)
        assert not qrp.is_empty
        assert not any(qrp.graph.edges[kind] for kind in qrp.graph.edges)
        shared = model.compute_embeddings()
        batch = [crafted] + _mixed_batch(splits)[:4]
        _grad_equivalence(model, batch, lambda: shared, reference=oracle.loss_sample)

    def test_packed_hgat_size_cap(self, tiny, monkeypatch):
        """Splitting the block-diagonal HGAT packs must not change the
        objective (large eval chunks hit this path)."""
        import repro.core.model as model_module

        dataset, splits, _ = tiny
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(12))
        batch = _mixed_batch(splits)
        shared = model.compute_embeddings()
        one_pack = model.loss_batch(batch, *shared).item()
        monkeypatch.setattr(model_module, "MAX_PACKED_NODES", 1)  # one graph per pack
        many_packs = model.loss_batch(batch, *shared).item()
        assert many_packs == pytest.approx(one_pack, rel=1e-10)

    def test_empty_batch_raises(self, tiny):
        dataset, _, locations = tiny
        model = make_baseline("GRU", len(dataset.city.pois), locations, dim=16, rng=spawn(7))
        with pytest.raises(ValueError):
            model.loss_batch([])
        tspnra = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(8))
        with pytest.raises(ValueError):
            tspnra.loss_batch([], *tspnra.compute_embeddings())


class TestTrainerDeterminism:
    def _losses(self, dataset, splits, per_sample, seed=11):
        model = TSPNRA.from_dataset(dataset, TSPNRAConfig(**CFG), rng=spawn(7))
        config = TrainConfig(
            epochs=3,
            batch_size=8,
            lr=5e-3,
            max_train_samples=64,
            seed=seed,
        )
        trained = oracle.PerSampleModel(model) if per_sample else model
        return Trainer(trained, config).fit(splits.train).epoch_losses

    def test_paths_bit_identical_and_deterministic(self, tiny):
        """Same seed => bit-identical epoch_losses, within each path
        (rerun) and *across* the batched path and the per-sample oracle
        trained through the trainer's fallback loop (dropout disabled;
        both then compute identical losses and gradients through the
        whole Adam trajectory)."""
        dataset, splits, _ = tiny
        batched = self._losses(dataset, splits, per_sample=False)
        assert self._losses(dataset, splits, per_sample=False) == batched
        per_sample = self._losses(dataset, splits, per_sample=True)
        assert self._losses(dataset, splits, per_sample=True) == per_sample
        assert batched == per_sample


class _CountingToy(Module):
    """Per-sample-only model: next-POI table lookup, no loss_batch."""

    requires_gradient_training = True

    def __init__(self, num_pois=6):
        super().__init__()
        self.table = Embedding(num_pois, 8, rng=spawn(0))
        self.head = Linear(8, num_pois, rng=spawn(1))
        self.sample_calls = 0

    def loss_sample(self, sample):
        self.sample_calls += 1
        emb = self.table(np.array([sample.prefix[-1].poi_id]))
        logits = self.head(emb[0])
        return cross_entropy(logits.reshape(1, -1), np.array([sample.target.poi_id]))


def _toy_samples(n=16):
    return [
        PredictionSample(
            user_id=0,
            history=[],
            prefix=[Visit(i % 6, float(i))],
            target=Visit((i + 1) % 6, float(i) + 0.5),
            history_key=(0, i),
        )
        for i in range(n)
    ]


class TestTrainerDispatch:
    def test_fallback_without_loss_batch(self):
        model = _CountingToy()
        trainer = Trainer(model, TrainConfig(epochs=1, batch_size=4))
        assert not trainer.batched
        trainer.fit(_toy_samples())
        assert model.sample_calls == 16


class TestFitModeRestore:
    def test_restores_eval_mode(self):
        model = _CountingToy().eval()
        Trainer(model, TrainConfig(epochs=1, batch_size=4)).fit(_toy_samples(8))
        assert not model.training

    def test_keeps_train_mode(self):
        model = _CountingToy()
        assert model.training
        Trainer(model, TrainConfig(epochs=1, batch_size=4)).fit(_toy_samples(8))
        assert model.training

    def test_restores_mode_when_loss_raises(self):
        class Exploding(_CountingToy):
            def loss_sample(self, sample):
                raise RuntimeError("boom")

        model = Exploding().eval()
        with pytest.raises(RuntimeError):
            Trainer(model, TrainConfig(epochs=1, batch_size=4)).fit(_toy_samples(8))
        assert not model.training
