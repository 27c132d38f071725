"""TSPN-RA: Two-Step Prediction Network with Remote sensing Augmentation.

The top-level model (paper Fig. 5).  A forward pass for one prediction
sample runs:

1. **Data extraction** — prefix POI / tile sequences plus the QR-P
   graph of the user's history (built by the tile system and cached per
   current-trajectory).
2. **Feature embedding** — Me1 (CNN over tile imagery), Me2 (POI id +
   category), spatial encoder Ms (Eq. 4), temporal encoders Mt,
   HGAT M_G over the QR-P graph.
3. **Two-step prediction** — fusion modules MP1/MP2 produce
   h_out_tau / h_out_p; step one ranks leaf tiles, step two ranks the
   POIs inside the top-K tiles.

All Table IV ablations are configuration switches
(:class:`~repro.core.config.TSPNRAConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, get_default_dtype, no_grad, pad_stack, trace
from ..autograd.plan import Plan
from ..data.trajectory import PredictionSample
from ..graphs import QRPGraph, strip_edges
from ..nn import Module, causal_mask, key_padding_mask
from ..obs.tracing import span
from ..serve.protocol import PredictorBase, PredictorResult, target_poi_of
from ..utils.cache import LRUCache
from ..utils.rng import default_rng, derive
from .config import TSPNRAConfig
from .encoders import SpatialEncoder, TemporalEncoder, spatial_encoding, time_slots
from .fusion import FusionModule
from .hgat import HGATEncoder
from .loss import arcface_loss_batch
from .poi_embedding import POIEmbedder
from .tile_embedding import ImageTileEmbedder, TableTileEmbedder
from .two_step import (
    candidate_pois,
    cosine_similarities,
    normalize_rows,
    rank_pois_batch,
    rank_tiles_batch,
    select_tiles,
)

# The historic TSPN-RA-only result type is now the serve-wide one.
PredictionResult = PredictorResult

# Upper bound on the node count of one packed block-diagonal HGAT pass:
# dense (N, N) attention masks grow quadratically, so very large
# inference chunks (the evaluator feeds 128 samples at a time) are
# split into several packs instead of one huge one.  Training batches
# (size 8) always fit in a single pack.
MAX_PACKED_NODES = 512


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 0 else 0


@dataclass
class EncodePlan:
    """One captured encode plan plus everything its replay needs.

    ``tile_table`` / ``poi_table`` are the embedding tables cast to the
    plan dtype (fed as plan inputs each run); ``leaf_norm`` /
    ``poi_norm`` are the hoisted :func:`normalize_rows` ranking tables.
    Instances are immutable snapshots of one ``weights_version`` —
    caches key them accordingly (see ``repro.serve.plans``).
    """

    plan: Plan
    bucket: Tuple[int, int, int, int]
    dtype: np.dtype
    tile_table: np.ndarray
    poi_table: np.ndarray
    leaf_norm: np.ndarray
    poi_norm: np.ndarray


class TSPNRA(Module, PredictorBase):
    """The full model.  Use :meth:`from_dataset` for the common path."""

    name = "TSPN-RA"
    requires_gradient_training = True

    def __init__(
        self,
        tile_system,
        imagery,
        num_pois: int,
        num_categories: int,
        categories: np.ndarray,
        normalized_xy: np.ndarray,
        config: Optional[TSPNRAConfig] = None,
        rng=None,
    ):
        super().__init__()
        rng = rng or default_rng()
        self.config = config or TSPNRAConfig()
        self.tile_system = tile_system
        self.num_pois = num_pois
        self.normalized_xy = np.asarray(normalized_xy, dtype=np.float64)
        dim = self.config.dim

        if self.config.use_imagery:
            self.tile_embedder = ImageTileEmbedder(
                imagery, tile_system.num_tiles, dim, rng=rng
            )
        else:
            self.tile_embedder = TableTileEmbedder(tile_system.num_tiles, dim, rng=rng)
        self.poi_embedder = POIEmbedder(
            num_pois,
            num_categories,
            categories,
            dim,
            alpha=self.config.alpha,
            use_category=self.config.use_category,
            rng=rng,
        )
        if self.config.use_st_encoder:
            self.spatial_encoder = SpatialEncoder(dim, scale=self.config.spatial_scale)
            self.tile_temporal = TemporalEncoder(dim, rng=rng)
            self.poi_temporal = TemporalEncoder(dim, rng=rng)
        if self.config.use_graph:
            self.hgat = HGATEncoder(dim, num_layers=self.config.hgat_layers, rng=rng)
        self.fusion_tile = FusionModule(
            dim,
            num_heads=self.config.num_heads,
            num_layers=self.config.fusion_layers,
            dropout=self.config.dropout,
            rng=rng,
        )
        self.fusion_poi = FusionModule(
            dim,
            num_heads=self.config.num_heads,
            num_layers=self.config.fusion_layers,
            dropout=self.config.dropout,
            rng=rng,
        )

        self._leaf_ids = list(tile_system.leaves())
        self._leaf_index = {leaf: i for i, leaf in enumerate(self._leaf_ids)}
        self._leaf_array = np.asarray(self._leaf_ids, dtype=np.int64)
        # POI -> leaf-tile lookup table (filled lazily; lets the batched
        # encode map a whole (batch, length) id array in one gather)
        self._poi_leaf: Optional[np.ndarray] = None
        # cache of (graph, HGAT masks) keyed by (user, trajectory index);
        # unbounded by default, swappable for a bounded LRU when serving
        self._graph_cache: LRUCache = LRUCache(maxsize=None)
        # HGAT knowledge rows keyed (history_key, weights_version), used
        # only by the compiled feed-prep stage: histories repeat across
        # serving batches (every prefix of a trajectory shares one), so
        # the graph pass — the one encode stage a plan cannot capture —
        # amortises across requests.  weights_version in the key makes
        # reloads invalidate naturally; the LRU bound ages out streams.
        self._knowledge_cache: LRUCache = LRUCache(maxsize=2048)
        # step-two candidate sets keyed by the top-K tile tuple: the
        # tile system is static after construction, and spatial locality
        # makes the same top-K tuples recur across requests, so both the
        # eager and compiled ranking tails share one memo (identical
        # ranked lists either way — the cached value IS the candidate
        # array the uncached path would build)
        self._candidate_cache: LRUCache = LRUCache(maxsize=4096)
        # per-dtype Eq. 4 code tables for the compiled feed-prep gather
        self._spatial_tables: Dict[str, np.ndarray] = {}
        self._negative_rng = derive(rng, 17)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset, config: Optional[TSPNRAConfig] = None, rng=None) -> "TSPNRA":
        """Build the model for a :class:`repro.data.Dataset`."""
        from .tilesystem import QuadTreeTileSystem

        tile_system = QuadTreeTileSystem(dataset.quadtree, dataset.road_adjacency)
        pois = dataset.city.pois
        normalized = np.array(
            [dataset.spec.bbox.normalize(x, y) for x, y in pois.xy], dtype=np.float64
        )
        return cls(
            tile_system=tile_system,
            imagery=dataset.imagery,
            num_pois=len(pois),
            num_categories=pois.num_categories,
            categories=pois.categories,
            normalized_xy=normalized,
            config=config,
            rng=rng,
        )

    @property
    def leaf_ids(self) -> List[int]:
        return list(self._leaf_ids)

    # ------------------------------------------------------------------
    # embeddings
    # ------------------------------------------------------------------
    def compute_embeddings(self) -> Tuple[Tensor, Tensor]:
        """E_T for all tiles and E_P for all POIs (one graph per batch)."""
        return self.tile_embedder.all_embeddings(), self.poi_embedder.all_embeddings()

    def _qrp_for(self, sample: PredictionSample) -> Tuple[QRPGraph, dict]:
        key = sample.history_key
        cached = self._graph_cache.get(key)
        if cached is None:
            qrp = self.tile_system.build_graph(sample.history)
            if self.config.drop_edge_type:
                qrp = strip_edges(qrp, self.config.drop_edge_type)
            masks = (
                HGATEncoder.build_masks(qrp) if self.config.use_graph and not qrp.is_empty else {}
            )
            cached = (qrp, masks)
            self._graph_cache.put(key, cached)
        return cached

    def set_graph_cache(self, cache: LRUCache) -> bool:
        """Adopt an external (typically LRU-bounded) QR-P graph cache.

        Entries already built (e.g. during training) are migrated so
        serving starts warm; the new cache's eviction policy applies.
        """
        for key, value in self._graph_cache.items():
            cache.put(key, value)
        self._graph_cache = cache
        return True

    def stream_graph_maintainer(self):
        """Incremental QR-P maintainer whose graphs this model can serve.

        ``None`` when pushed entries would be wrong for this
        configuration: graph-free models never read the cache, and the
        ``drop_edge_type`` ablations serve *stripped* graphs, not the
        canonical ones the maintainer produces.  The cache-key protocol
        keeps correctness either way — this gate only decides whether
        the ingest pipeline may push pre-built entries.
        """
        if not self.config.use_graph or self.config.drop_edge_type:
            return None
        factory = getattr(self.tile_system, "graph_maintainer", None)
        return factory() if callable(factory) else None

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def _poi_leaf_table(self) -> np.ndarray:
        if self._poi_leaf is None:
            self._poi_leaf = np.asarray(
                [self.tile_system.leaf_of_poi(p) for p in range(self.num_pois)],
                dtype=np.int64,
            )
        return self._poi_leaf

    def _history_knowledge_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ):
        """HGAT knowledge for every *unique* history, in packed passes.

        Returns ``{history_key: (tile rows, poi rows)}`` (``(None,
        None)`` for empty histories/graphs).  Unique QR-P graphs are
        packed block-diagonally and run through
        :meth:`HGATEncoder.forward_packed` — two embedding gathers,
        one permutation and one dense pass per pack replace the
        per-graph Python loop, for inference and the batched training
        loss alike.  Packs are capped at :data:`MAX_PACKED_NODES`
        total nodes so large evaluation chunks never materialise a
        huge dense ``(N, N)`` mask.
        """
        knowledge = {}
        to_pack: List[Tuple[Tuple, QRPGraph, dict]] = []
        seen = set()
        for sample in samples:
            key = sample.history_key
            if key in knowledge or key in seen:
                continue
            if not (self.config.use_graph and sample.history):
                knowledge[key] = (None, None)
                continue
            qrp, masks = self._qrp_for(sample)
            if qrp.is_empty:
                knowledge[key] = (None, None)
            elif not any(qrp.graph.edges[kind] for kind in qrp.graph.edges):
                # Edge-free graph (possible under the drop_edge_type
                # ablations): the per-graph HGAT short-circuits to the
                # identity, so knowledge is just the initial
                # embeddings.  Packing it instead would zero its rows
                # (the packed layer sums messages for every row).
                knowledge[key] = (
                    tile_embeddings[np.asarray(qrp.tile_refs, dtype=np.int64)],
                    poi_embeddings[np.asarray(qrp.poi_refs, dtype=np.int64)],
                )
            else:
                seen.add(key)
                to_pack.append((key, qrp, masks))
        # greedy size-capped packs: dense masks are (N, N), so bound N
        group: List[Tuple[Tuple, QRPGraph, dict]] = []
        group_nodes = 0
        for entry in to_pack:
            nodes = entry[1].graph.num_nodes
            if group and group_nodes + nodes > MAX_PACKED_NODES:
                self._run_packed(group, knowledge, tile_embeddings, poi_embeddings)
                group, group_nodes = [], 0
            group.append(entry)
            group_nodes += nodes
        if group:
            self._run_packed(group, knowledge, tile_embeddings, poi_embeddings)
        return knowledge

    def _run_packed(self, packed, knowledge, tile_embeddings, poi_embeddings):
        """One block-diagonal HGAT pass; fills ``knowledge`` in place."""
        tile_counts = [len(qrp.tile_refs) for _, qrp, _ in packed]
        poi_counts = [len(qrp.poi_refs) for _, qrp, _ in packed]
        all_tile_refs = np.concatenate(
            [np.asarray(qrp.tile_refs, dtype=np.int64) for _, qrp, _ in packed]
        )
        all_poi_refs = np.concatenate(
            [np.asarray(qrp.poi_refs, dtype=np.int64) for _, qrp, _ in packed]
        )
        # Stacked gathers come out [all tiles..., all pois...]; the
        # permutation re-blocks them per graph (tiles then pois), the
        # node order each graph's masks expect.
        total_tiles = int(sum(tile_counts))
        tile_offsets = np.concatenate([[0], np.cumsum(tile_counts)])
        poi_offsets = np.concatenate([[0], np.cumsum(poi_counts)]) + total_tiles
        perm = np.concatenate(
            [
                np.concatenate(
                    [
                        np.arange(tile_offsets[i], tile_offsets[i + 1]),
                        np.arange(poi_offsets[i], poi_offsets[i + 1]),
                    ]
                )
                for i in range(len(packed))
            ]
        ).astype(np.int64)
        h0 = concat(
            [tile_embeddings[all_tile_refs], poi_embeddings[all_poi_refs]], axis=0
        )[perm]
        sizes = [t + p for t, p in zip(tile_counts, poi_counts)]
        out = self.hgat.forward_packed([m for _, _, m in packed], h0, sizes)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for i, (key, qrp, _) in enumerate(packed):
            lo = int(offsets[i])
            n_tiles = tile_counts[i]
            knowledge[key] = (
                out[lo : lo + n_tiles],
                out[lo + n_tiles : int(offsets[i + 1])],
            )

    def encode_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tuple[Tensor, Tensor]:
        """Fused (h_out_tau, h_out_p) for a whole batch: ``(B, dim)`` each.

        The one encode behind inference, training and plan tracing:
        feeds at the batch's exact shape ``(B, L_max, H_tiles_max,
        H_pois_max)`` (:meth:`_encode_plan_feeds`), then the Tensor math
        of :meth:`_encode_core`.  QR-P graph knowledge is computed per
        *unique* history (:meth:`_history_knowledge_batch`) and stays on
        the autograd graph, right-padded by
        :func:`repro.autograd.pad_stack`, so under gradient tracking
        :meth:`loss_batch` backpropagates one padded mini-batch through
        the whole encode, HGAT included.  A single sample is a batch of
        one.
        """
        knowledge = None
        width_tiles = width_pois = 0
        if self.config.use_graph:
            by_key = self._history_knowledge_batch(samples, tile_embeddings, poi_embeddings)
            knowledge = [by_key[s.history_key] for s in samples]
            width_tiles = max(0 if t is None else t.shape[0] for t, _ in knowledge)
            width_pois = max(0 if p is None else p.shape[0] for _, p in knowledge)
        bucket = (
            len(samples),
            max(len(s.prefix) for s in samples),
            width_tiles,
            width_pois,
        )
        feeds = self._encode_plan_feeds(
            samples,
            bucket,
            get_default_dtype(),
            tile_embeddings,
            poi_embeddings,
            knowledge=knowledge,
        )
        return self._encode_core(feeds, tile_embeddings, poi_embeddings, bucket)

    def _encode_plan_feeds(
        self,
        samples: Sequence[PredictionSample],
        bucket: Tuple[int, int, int, int],
        dtype: np.dtype,
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
        knowledge: Optional[List[Tuple[Optional[Tensor], Optional[Tensor]]]] = None,
    ) -> Dict[str, np.ndarray]:
        """Stage one of the encode: batch -> padded feed arrays.

        Everything batch-dependent becomes an explicit array here —
        padded id grids, the Eq. 4 spatial code, time-slot ids, gather
        positions, knowledge rows and their pre-broadcast masks — so
        stage two (:meth:`_encode_core`) is a pure function a trace can
        capture.  Padded batch rows get a length-1 all-zeros prefix and
        no knowledge; causal masking plus the final gather keep them
        out of every real sample's values.

        ``knowledge`` holds each sample's ``(tile rows, POI rows)`` as
        Tensors (the eager path, :meth:`encode_batch`); the knowledge
        feeds are then ``pad_stack`` Tensors that carry gradients back
        into the HGAT.  Without it (the plan path) the rows come from
        the cached arrays of :meth:`_knowledge_rows`, cast to ``dtype``.
        """
        b_pad, l_pad, ht, hp = bucket
        batch = len(samples)
        if batch > b_pad:
            raise ValueError(f"batch of {batch} exceeds bucket {bucket}")
        lengths = np.ones(b_pad, dtype=np.int64)
        prefix_ids = np.zeros((b_pad, l_pad), dtype=np.int64)
        timestamps = np.zeros((b_pad, l_pad), dtype=np.float64)
        for i, sample in enumerate(samples):
            ids = sample.prefix_poi_ids
            if not len(ids):
                raise ValueError("encode needs non-empty prefixes")
            if len(ids) > l_pad:
                raise ValueError(f"prefix of {len(ids)} exceeds bucket {bucket}")
            prefix_ids[i, : len(ids)] = ids
            timestamps[i, : len(ids)] = [v.timestamp for v in sample.prefix]
            lengths[i] = len(ids)
        feeds: Dict[str, np.ndarray] = {
            "prefix_ids": prefix_ids,
            "tile_ids": self._poi_leaf_table()[prefix_ids],
            "positions": lengths - 1,
        }
        if self.config.use_st_encoder:
            feeds["spatial_code"] = self._spatial_code_table(dtype)[prefix_ids]
            feeds["time_slot_ids"] = time_slots(timestamps)
        if ht or hp:
            rows = knowledge
            if rows is None:
                rows = self._knowledge_rows(samples, tile_embeddings, poi_embeddings)
            for name, width, side in (("tiles", ht, 0), ("pois", hp, 1)):
                if not width:
                    continue
                blocks = [per_sample[side] for per_sample in rows]
                counts = np.zeros(b_pad, dtype=np.int64)
                counts[:batch] = [0 if b is None else b.shape[0] for b in blocks]
                if counts.max() > width:
                    raise ValueError(
                        f"{name} knowledge of {counts.max()} exceeds bucket {bucket}"
                    )
                if knowledge is not None:
                    history = pad_stack(
                        blocks + [None] * (b_pad - batch), self.config.dim, pad_to=width
                    )
                else:
                    history = np.zeros((b_pad, width, self.config.dim), dtype=dtype)
                    for i, block in enumerate(blocks):
                        if counts[i]:
                            history[i, : counts[i]] = block
                mask = key_padding_mask(counts, width)
                feeds[f"history_{name}"] = history
                feeds[f"{name}_mask"] = mask[:, None, None, :]
                feeds[f"has_{name}"] = (~mask.all(axis=1))[:, None, None]
        return feeds

    def _encode_core(
        self,
        feeds: Dict[str, np.ndarray],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
        bucket: Tuple[int, int, int, int],
    ) -> Tuple[Tensor, Tensor]:
        """Stage two of the encode: pure Tensor math over the feeds.

        Embedding gathers, the spatial/temporal encoders (Eq. 4 code
        plus learnable time-slot rows), both fusion stacks and the final
        last-position gather, consuming only the
        :meth:`_encode_plan_feeds` arrays plus the embedding tables and
        deriving nothing batch-shaped internally.  :meth:`encode_batch`
        runs it eagerly (with gradients when training);
        :meth:`build_encode_plan` traces it once per bucket into a
        :class:`Plan`.  Knowledge feeds are wrapped in ``Tensor`` only
        when they are plain arrays, so eager ``pad_stack`` rows keep
        their autograd links.
        """
        _, l_pad, ht, hp = bucket
        tile_sequence = tile_embeddings[feeds["tile_ids"]]  # (B, L, dim)
        poi_sequence = poi_embeddings[feeds["prefix_ids"]]
        if self.config.use_st_encoder:
            tile_sequence = tile_sequence + Tensor(feeds["spatial_code"])
            tile_sequence = tile_sequence + self.tile_temporal.slots(
                feeds["time_slot_ids"]
            )
            poi_sequence = poi_sequence + self.poi_temporal.slots(
                feeds["time_slot_ids"]
            )
        causal = causal_mask(l_pad)[None, None, :, :]
        positions = feeds["positions"]
        outputs = []
        for fusion, sequence, name, width in (
            (self.fusion_tile, tile_sequence, "tiles", ht),
            (self.fusion_poi, poi_sequence, "pois", hp),
        ):
            if not width:
                outputs.append(fusion.forward_batch(sequence, positions, causal))
                continue
            history = feeds[f"history_{name}"]
            if not isinstance(history, Tensor):
                history = Tensor(history)
            outputs.append(
                fusion.forward_batch(
                    sequence,
                    positions,
                    causal,
                    history,
                    feeds[f"{name}_mask"],
                    feeds[f"has_{name}"],
                )
            )
        return outputs[0], outputs[1]

    def _spatial_code_table(self, dtype) -> np.ndarray:
        """Per-POI Eq. 4 codes as a static gather table.

        The sinusoidal code is a pure elementwise function of each POI's
        (fixed) location, so ``spatial_encoding(xy[ids])`` equals
        ``table[ids]`` row for row, bit-identically.  Computed once per
        dtype; the feed-prep stage then pays one gather per batch
        instead of re-evaluating the trig.
        """
        key = np.dtype(dtype).str
        table = self._spatial_tables.get(key)
        if table is None:
            table = spatial_encoding(
                self.normalized_xy,
                self.config.dim,
                scale=self.spatial_encoder.scale,
                dtype=dtype,
            )
            self._spatial_tables[key] = table
        return table

    # ------------------------------------------------------------------
    # training loss
    # ------------------------------------------------------------------
    def _training_candidates(
        self, target_poi: int, tile_output_data: np.ndarray, leaf_data: np.ndarray
    ) -> List[int]:
        """Step-two candidate POIs for one training sample.

        Data extraction, no gradients.  On the no-two-step path each
        call consumes ``_negative_rng``, so :meth:`loss_batch` calls it
        in sample order.
        """
        if self.config.use_two_step:
            top = select_tiles(
                tile_output_data, leaf_data, self._leaf_ids, self.config.top_k
            )
            candidates = candidate_pois(self.tile_system, top)
            if target_poi not in candidates:
                candidates.append(target_poi)
            return candidates
        negatives = self._negative_rng.choice(
            self.num_pois,
            size=min(self.config.negatives_no_two_step, self.num_pois - 1),
            replace=False,
        )
        return [target_poi] + [int(n) for n in negatives if n != target_poi]

    def loss_sample(
        self, sample: PredictionSample, tile_embeddings: Tensor, poi_embeddings: Tensor
    ) -> Tensor:
        """Eq. 8 combined loss for one sample: a batch of one."""
        return self.loss_batch([sample], tile_embeddings, poi_embeddings)

    def loss_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> Tensor:
        """Summed Eq. 8 loss for a whole mini-batch in one forward pass.

        The training counterpart of :meth:`predict_batch`: one padded
        :meth:`encode_batch` (differentiable end to end, including the
        pad/mask/gather ops), then both ArcFace heads vectorised over
        the batch — the tile head against the shared leaf table, the
        POI head against right-padded per-sample candidate sets with
        invalid slots masked out of the softmax.  Returns the *sum* of
        the per-sample Eq. 8 losses; the trainer divides by the batch
        size.  This is the model's only loss implementation
        (:meth:`loss_sample` is a batch of one).
        """
        if not samples:
            raise ValueError("loss_batch needs a non-empty batch")
        config = self.config
        batch = len(samples)
        tile_outputs, poi_outputs = self.encode_batch(
            samples, tile_embeddings, poi_embeddings
        )
        leaf_embeddings = tile_embeddings[self._leaf_array]

        target_pois = np.asarray([s.target.poi_id for s in samples], dtype=np.int64)
        target_leaves = self._poi_leaf_table()[target_pois]
        leaf_positions = np.asarray(
            [self._leaf_index[int(leaf)] for leaf in target_leaves], dtype=np.int64
        )
        tile_losses = arcface_loss_batch(
            tile_outputs,
            leaf_embeddings,
            leaf_positions,
            scale=config.loss_scale,
            margin=config.loss_margin,
        )

        # Candidate sets are data extraction (no gradients), one
        # sample at a time.
        candidate_lists = [
            self._training_candidates(
                int(target_pois[i]), tile_outputs.data[i], leaf_embeddings.data
            )
            for i in range(batch)
        ]

        counts = np.asarray([len(c) for c in candidate_lists], dtype=np.int64)
        c_max = int(counts.max())
        candidate_ids = np.zeros((batch, c_max), dtype=np.int64)
        target_positions = np.zeros(batch, dtype=np.int64)
        for i, candidates in enumerate(candidate_lists):
            ids = np.asarray(candidates, dtype=np.int64)
            candidate_ids[i, : len(ids)] = ids
            target_positions[i] = int(np.nonzero(ids == target_pois[i])[0][0])
        valid = ~key_padding_mask(counts, c_max)

        poi_losses = arcface_loss_batch(
            poi_outputs,
            poi_embeddings[candidate_ids],
            target_positions,
            scale=config.loss_scale,
            margin=config.loss_margin,
            valid=valid,
        )
        return (tile_losses * config.beta + poi_losses).sum()

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(
        self,
        sample: PredictionSample,
        tile_embeddings: Optional[Tensor] = None,
        poi_embeddings: Optional[Tensor] = None,
        k: Optional[int] = None,
    ) -> PredictorResult:
        """Rank tiles then POIs for one sample: a batch of one."""
        return self.predict_batch([sample], tile_embeddings, poi_embeddings, k=k)[0]

    def predict_batch(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Optional[Tensor] = None,
        poi_embeddings: Optional[Tensor] = None,
        k: Optional[int] = None,
    ) -> List[PredictorResult]:
        """Rank tiles then POIs for a batch (no gradients).

        One padded-batch encode (:meth:`encode_batch`), one matmul over
        the leaf-embedding table for step one and one over the full POI
        table for step two.
        """
        if not samples:
            return []
        k = k if k is not None else self.config.top_k
        with no_grad():
            if tile_embeddings is None or poi_embeddings is None:
                tile_embeddings, poi_embeddings = self.compute_embeddings()
            with span("encode", batch_size=len(samples)):
                tile_outputs, poi_outputs = self.encode_batch(
                    samples, tile_embeddings, poi_embeddings
                )
            with span("rank.two_step", two_step=self.config.use_two_step):
                leaf_embeddings = tile_embeddings.data[self._leaf_array]
                ranked_tiles_all = rank_tiles_batch(
                    tile_outputs.data, leaf_embeddings, self._leaf_ids
                )
                if self.config.use_two_step:
                    candidate_lists = [
                        self._candidates_for(ranked, k) for ranked in ranked_tiles_all
                    ]
                else:
                    candidate_lists = [list(range(self.num_pois))] * len(samples)
                ranked_pois_all = rank_pois_batch(
                    poi_outputs.data, poi_embeddings.data, candidate_lists
                )
        return self._results(samples, ranked_tiles_all, ranked_pois_all)

    def _candidates_for(self, ranked_tiles: Sequence[int], k: int) -> np.ndarray:
        """Step-two candidate ids for a ranked tile list, memoised.

        Same POIs in the same order as calling
        :func:`candidate_pois` directly — the memo only skips the
        repeated per-leaf list walk for top-K tuples already seen.
        Returned arrays are shared cache entries: callers read, never
        mutate.
        """
        key = tuple(ranked_tiles[:k])
        cached = self._candidate_cache.get(key)
        if cached is None:
            cached = np.asarray(
                candidate_pois(self.tile_system, key), dtype=np.int64
            )
            self._candidate_cache.put(key, cached)
        return cached

    def _results(
        self,
        samples: Sequence[PredictionSample],
        ranked_tiles_all: Sequence[List[int]],
        ranked_pois_all: Sequence[List[int]],
    ) -> List[PredictorResult]:
        """Ranked lists -> :class:`PredictorResult`s (shared eager/compiled tail)."""
        results: List[PredictorResult] = []
        for sample, ranked_tiles, ranked_pois in zip(
            samples, ranked_tiles_all, ranked_pois_all
        ):
            target_poi = target_poi_of(sample)
            target_tile = (
                self.tile_system.leaf_of_poi(target_poi) if target_poi >= 0 else -1
            )
            results.append(
                PredictorResult(
                    ranked_pois=ranked_pois,
                    target_poi=target_poi,
                    ranked_tiles=ranked_tiles,
                    target_tile=target_tile,
                    num_pois=self.num_pois,
                )
            )
        return results

    # ------------------------------------------------------------------
    # compiled inference (trace-once, graph-free replay)
    # ------------------------------------------------------------------
    def plan_bucket(self, samples: Sequence[PredictionSample]) -> Tuple[int, int, int, int]:
        """Shape bucket ``(B, L, H_tiles, H_pois)`` this batch pads into.

        Every dimension rounds up — batch to a power of two while ≤ 4,
        then a multiple of 4; sequence length to a multiple of 4;
        knowledge widths to a multiple of 8 — so a handful of plans
        covers the whole serving traffic.  The rounding is deliberately
        tight: self-attention is O(L²), so padding L to the next power
        of two (up to 2× the real length) costs more wall-clock than
        the extra traces a multiple-of-4 grid pays for.  A width of 0
        means *no sample has that kind of knowledge*, which traces a
        plan variant without the cross-attention stage, the same
        branch :meth:`_encode_core` takes eagerly.
        """
        if not samples:
            raise ValueError("plan_bucket needs a non-empty batch")
        lengths = [len(s.prefix) for s in samples]
        if min(lengths) < 1:
            raise ValueError("plan_bucket needs non-empty prefixes")
        batch = len(samples)
        b_pad = _next_pow2(batch) if batch <= 4 else ((batch + 3) // 4) * 4
        l_pad = ((max(lengths) + 3) // 4) * 4
        max_tiles = max_pois = 0
        if self.config.use_graph:
            for sample in samples:
                n_tiles, n_pois = self._knowledge_counts(sample)
                max_tiles = max(max_tiles, n_tiles)
                max_pois = max(max_pois, n_pois)
        ht = ((max_tiles + 7) // 8) * 8
        hp = ((max_pois + 7) // 8) * 8
        return (b_pad, l_pad, ht, hp)

    def _knowledge_counts(self, sample: PredictionSample) -> Tuple[int, int]:
        """(tile rows, POI rows) the sample's knowledge will occupy.

        Mirrors :meth:`_history_knowledge_batch` row counts without
        running the HGAT — the QR-P graph (cached per history) already
        knows its node counts.
        """
        if not (self.config.use_graph and sample.history):
            return (0, 0)
        qrp, _ = self._qrp_for(sample)
        if qrp.is_empty:
            return (0, 0)
        return (len(qrp.tile_refs), len(qrp.poi_refs))

    def _knowledge_rows(
        self,
        samples: Sequence[PredictionSample],
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> List[Tuple[Optional[np.ndarray], Optional[np.ndarray]]]:
        """Per-sample HGAT knowledge rows as plain arrays, LRU-cached.

        Cache misses are computed in one :meth:`_history_knowledge_batch`
        call (packed block-diagonal HGAT); the packed pass is exactly
        padding/pack-invariant — cross-graph attention weights are exact
        zeros — so rows computed in different batch compositions are
        bit-identical, which keeps the cached-vs-fresh distinction
        invisible to ranked lists.
        """
        version = self.weights_version()
        by_key: Dict = {}
        missing: List[PredictionSample] = []
        queued = set()
        for sample in samples:
            key = sample.history_key
            if key in by_key or key in queued:
                continue
            hit = self._knowledge_cache.get((key, version))
            if hit is not None:
                by_key[key] = hit
            else:
                queued.add(key)
                missing.append(sample)
        if missing:
            knowledge = self._history_knowledge_batch(
                missing, tile_embeddings, poi_embeddings
            )
            for key, (tiles, pois) in knowledge.items():
                rows = (
                    None if tiles is None else np.asarray(tiles.data),
                    None if pois is None else np.asarray(pois.data),
                )
                self._knowledge_cache.put((key, version), rows)
                by_key[key] = rows
        return [by_key[s.history_key] for s in samples]

    def build_encode_plan(
        self,
        samples: Sequence[PredictionSample],
        bucket: Tuple[int, int, int, int],
        dtype,
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
    ) -> "EncodePlan":
        """Trace the encode hot path for one shape bucket into a plan.

        The embedding tables are declared as plan *inputs* (they change
        on reload, and baking them would double their memory); every
        parameter inside the fusion stacks is baked, with parameter-only
        subexpressions constant-folded at finalize.  Verification replays
        the plan on the trace batch — bit-exact for float64.  Also
        hoists the :func:`normalize_rows` ranking tables so the ranking
        tail skips the per-batch renormalisation.
        """
        dtype = np.dtype(dtype)
        with no_grad():
            tile_table = np.asarray(tile_embeddings.data)
            poi_table = np.asarray(poi_embeddings.data)
            if tile_table.dtype != dtype:
                tile_table = tile_table.astype(dtype)
            if poi_table.dtype != dtype:
                poi_table = poi_table.astype(dtype)
            feeds = self._encode_plan_feeds(
                samples, bucket, dtype, tile_embeddings, poi_embeddings
            )
            with trace(dtype) as tracer:
                traced = {name: tracer.input(name, array) for name, array in feeds.items()}
                tile_input = Tensor(tracer.input("tile_table", tile_table))
                poi_input = Tensor(tracer.input("poi_table", poi_table))
                tile_output, poi_output = self._encode_core(
                    traced, tile_input, poi_input, bucket
                )
            plan = tracer.finalize([tile_output, poi_output])
        return EncodePlan(
            plan=plan,
            bucket=bucket,
            dtype=dtype,
            tile_table=tile_table,
            poi_table=poi_table,
            leaf_norm=normalize_rows(tile_table[self._leaf_array]),
            poi_norm=normalize_rows(poi_table),
        )

    def predict_batch_compiled(
        self,
        samples: Sequence[PredictionSample],
        entry: "EncodePlan",
        tile_embeddings: Tensor,
        poi_embeddings: Tensor,
        k: Optional[int] = None,
    ) -> List[PredictorResult]:
        """:meth:`predict_batch` through a captured plan (no graph, no
        Tensor wrappers on the hot path).

        Feed prep and the ranking tail share every expression with the
        eager path (same padding maths, same :func:`normalize_rows`
        tables), so a float64 plan yields bit-identical ranked lists;
        float32 plans trade the documented tolerance for bandwidth.
        """
        if not samples:
            return []
        k = k if k is not None else self.config.top_k
        with no_grad():
            with span(
                "plan.replay", batch_size=len(samples), dtype=str(entry.dtype)
            ):
                feeds = self._encode_plan_feeds(
                    samples, entry.bucket, entry.dtype, tile_embeddings, poi_embeddings
                )
                feeds["tile_table"] = entry.tile_table
                feeds["poi_table"] = entry.poi_table
                tile_out, poi_out = entry.plan.run(feeds)
            with span("rank.two_step", two_step=self.config.use_two_step):
                batch = len(samples)
                tile_out = np.asarray(tile_out)[:batch]
                poi_out = np.asarray(poi_out)[:batch]
                ranked_tiles_all = rank_tiles_batch(
                    tile_out, entry.leaf_norm, self._leaf_ids, candidates_normalized=True
                )
                if self.config.use_two_step:
                    candidate_lists = [
                        self._candidates_for(ranked, k) for ranked in ranked_tiles_all
                    ]
                else:
                    candidate_lists = [list(range(self.num_pois))] * batch
                ranked_pois_all = rank_pois_batch(
                    poi_out, entry.poi_norm, candidate_lists, candidates_normalized=True
                )
        return self._results(samples, ranked_tiles_all, ranked_pois_all)

    def score_candidates(
        self, sample: PredictionSample, candidate_ids: Sequence[int], *shared
    ) -> np.ndarray:
        """Cosine scores of h_out_p against the given candidate POIs."""
        with no_grad():
            tile_embeddings, poi_embeddings = shared if shared else self.compute_embeddings()
            _, poi_output = self.encode_batch([sample], tile_embeddings, poi_embeddings)
            candidate_array = np.asarray(candidate_ids, dtype=np.int64)
            return cosine_similarities(
                poi_output.data[0], poi_embeddings.data[candidate_array]
            )

    def clear_graph_cache(self) -> None:
        self._graph_cache.clear()
