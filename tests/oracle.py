"""Per-sample TSPN-RA forward pass: the reference the batched model is checked against.

The model runs one batched encode for training, inference and plan
tracing (``TSPNRA.encode_batch`` over ``_encode_plan_feeds`` +
``_encode_core``).  This module keeps the paper's per-sample
formulation of the same math, written against the model's own
submodules and parameters: one unpadded ``(L, dim)`` sequence, the
spatial/temporal encoders applied directly, the per-graph HGAT, and
unbatched attention with an ``(L, L)`` causal mask.  None of it shares
the batched path's padding, masking, feed prep or gathers, so the
equivalence tests compare two independent computations.

Functions take the model (or a fusion module) as their first argument;
:class:`PerSampleModel` wraps a model so :class:`repro.train.Trainer`
drives the per-sample loss (it has no ``loss_batch``).
"""

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd import Tensor, concat, no_grad
from repro.core.loss import arcface_loss, combined_loss
from repro.core.two_step import candidate_pois, cosine_similarities, rank_pois, rank_tiles
from repro.nn import causal_mask
from repro.serve.protocol import PredictorResult, target_poi_of


def block_forward(block, sequence: Tensor, history: Optional[Tensor]) -> Tensor:
    """One fusion block on an unbatched ``(L, dim)`` sequence."""
    attended = block.self_attention(
        sequence, sequence, sequence, mask=causal_mask(sequence.shape[0])
    )
    sequence = block.norm1(sequence + block.drop(attended))
    if history is not None and history.shape[0] > 0:
        crossed = block.cross_attention(sequence, history, history)
        sequence = block.norm2(sequence + block.drop(crossed))
    forwarded = block.feed_forward(sequence).relu()
    return block.norm3(sequence + block.drop(forwarded))


def fusion_forward(fusion, sequence: Tensor, history: Optional[Tensor]) -> Tensor:
    """MP1/MP2 on one sequence: ``(L, dim)`` -> h_out ``(dim,)``."""
    out = sequence
    for block in fusion.blocks:
        out = block_forward(block, out, history)
    return out[out.shape[0] - 1]


def history_knowledge(model, sample, tile_embeddings, poi_embeddings):
    """HGAT knowledge rows for one sample: (tiles, pois) or (None, None)."""
    if not (model.config.use_graph and sample.history):
        return None, None
    qrp, masks = model._qrp_for(sample)
    if qrp.is_empty:
        return None, None
    initial = concat(
        [
            tile_embeddings[np.asarray(qrp.tile_refs, dtype=np.int64)],
            poi_embeddings[np.asarray(qrp.poi_refs, dtype=np.int64)],
        ],
        axis=0,
    )
    knowledge = model.hgat(qrp, initial, masks=masks)
    n_tiles = len(qrp.tile_refs)
    return knowledge[0:n_tiles], knowledge[n_tiles:]


def encode(model, sample, tile_embeddings, poi_embeddings) -> Tuple[Tensor, Tensor]:
    """Fused output vectors (h_out_tau, h_out_p) for one sample."""
    prefix_ids = np.asarray(sample.prefix_poi_ids, dtype=np.int64)
    if not len(prefix_ids):
        raise ValueError("encode needs a non-empty prefix")
    timestamps = [v.timestamp for v in sample.prefix]
    tile_ids = np.asarray(
        [model.tile_system.leaf_of_poi(int(p)) for p in prefix_ids], dtype=np.int64
    )
    tile_sequence = tile_embeddings[tile_ids]
    poi_sequence = poi_embeddings[prefix_ids]
    if model.config.use_st_encoder:
        tile_sequence = model.spatial_encoder(tile_sequence, model.normalized_xy[prefix_ids])
        tile_sequence = model.tile_temporal(tile_sequence, timestamps)
        poi_sequence = model.poi_temporal(poi_sequence, timestamps)
    history_tiles, history_pois = history_knowledge(
        model, sample, tile_embeddings, poi_embeddings
    )
    return (
        fusion_forward(model.fusion_tile, tile_sequence, history_tiles),
        fusion_forward(model.fusion_poi, poi_sequence, history_pois),
    )


def loss_sample(model, sample, tile_embeddings, poi_embeddings) -> Tensor:
    """Eq. 8 combined loss for one sample."""
    tile_output, poi_output = encode(model, sample, tile_embeddings, poi_embeddings)
    config = model.config
    target_poi = sample.target.poi_id
    target_leaf = model.tile_system.leaf_of_poi(target_poi)
    leaf_embeddings = tile_embeddings[model._leaf_array]
    tile_loss = arcface_loss(
        tile_output,
        leaf_embeddings,
        model._leaf_index[target_leaf],
        scale=config.loss_scale,
        margin=config.loss_margin,
    )
    candidates = np.asarray(
        model._training_candidates(target_poi, tile_output.data, leaf_embeddings.data),
        dtype=np.int64,
    )
    poi_loss = arcface_loss(
        poi_output,
        poi_embeddings[candidates],
        int(np.nonzero(candidates == target_poi)[0][0]),
        scale=config.loss_scale,
        margin=config.loss_margin,
    )
    return combined_loss(tile_loss, poi_loss, beta=config.beta)


def predict(
    model,
    sample,
    tile_embeddings: Optional[Tensor] = None,
    poi_embeddings: Optional[Tensor] = None,
    k: Optional[int] = None,
) -> PredictorResult:
    """Rank tiles then POIs for one sample (no gradients)."""
    k = k if k is not None else model.config.top_k
    with no_grad():
        if tile_embeddings is None or poi_embeddings is None:
            tile_embeddings, poi_embeddings = model.compute_embeddings()
        tile_output, poi_output = encode(model, sample, tile_embeddings, poi_embeddings)
        ranked_tiles = rank_tiles(
            tile_output.data, tile_embeddings.data[model._leaf_array], model.leaf_ids
        )
        if model.config.use_two_step:
            candidates = candidate_pois(model.tile_system, ranked_tiles[:k])
        else:
            candidates = list(range(model.num_pois))
        ranked_pois = rank_pois(
            poi_output.data,
            poi_embeddings.data[np.asarray(candidates, dtype=np.int64)],
            candidates,
        )
    target_poi = target_poi_of(sample)
    return PredictorResult(
        ranked_pois=ranked_pois,
        target_poi=target_poi,
        ranked_tiles=ranked_tiles,
        target_tile=model.tile_system.leaf_of_poi(target_poi) if target_poi >= 0 else -1,
        num_pois=model.num_pois,
    )


def score_candidates(model, sample, candidate_ids: Sequence[int]) -> np.ndarray:
    """Cosine scores of h_out_p against the given candidate POIs."""
    with no_grad():
        tile_embeddings, poi_embeddings = model.compute_embeddings()
        _, poi_output = encode(model, sample, tile_embeddings, poi_embeddings)
        candidates = np.asarray(candidate_ids, dtype=np.int64)
        return cosine_similarities(poi_output.data, poi_embeddings.data[candidates])


class PerSampleModel:
    """A model seen through the per-sample loss only (no ``loss_batch``).

    :class:`repro.train.Trainer` falls back to summing ``loss_sample``
    for it, so a fit over this wrapper is the per-sample training
    trajectory of the wrapped model's parameters.
    """

    def __init__(self, model):
        self.model = model

    @property
    def training(self) -> bool:
        return self.model.training

    def train(self, mode: bool = True):
        self.model.train(mode)
        return self

    def parameters(self):
        return self.model.parameters()

    def compute_embeddings(self):
        return self.model.compute_embeddings()

    def loss_sample(self, sample, tile_embeddings, poi_embeddings) -> Tensor:
        return loss_sample(self.model, sample, tile_embeddings, poi_embeddings)
