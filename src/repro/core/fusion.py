"""Attention-based embedding fusion, modules MP1 / MP2 (paper Sec. V-A).

Each of the N blocks applies:

1. masked sequential self-attention (inverted-triangle mask),
2. add & layer-normalise (ResNet shortcut),
3. cross attention: query = current sequence, key/value = historical
   graph knowledge (H_T◁ or H_P◁),
4. position-wise feed-forward with ReLU.

The output vector is the last real position of the final sequence.

Sequences always arrive as a right-padded batch ``(B, L, dim)`` with
every mask pre-broadcast by the caller (``TSPNRA._encode_plan_feeds``),
so one method serves training, eager inference and plan tracing; a
single sample is a batch of one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor, gather_at, where
from ..nn import Dropout, LayerNorm, Linear, Module, ModuleList, MultiHeadAttention
from ..utils.rng import default_rng


class AttentionBlock(Module):
    """One fusion block AB_i(., .)."""

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.1, rng=None):
        super().__init__()
        rng = rng or default_rng()
        self.self_attention = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.cross_attention = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.feed_forward = Linear(dim, dim, rng=rng)
        self.norm3 = LayerNorm(dim)
        self.drop = Dropout(dropout)

    def forward_batch(
        self,
        sequence: Tensor,
        causal: np.ndarray,
        history: Optional[Tensor] = None,
        cross_mask: Optional[np.ndarray] = None,
        has_history: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Block body over a padded batch; every mask arrives pre-broadcast.

        ``sequence`` is ``(B, L, dim)``; ``causal`` is ``(1, 1, L, L)``;
        ``history`` is ``(B, H, dim)`` right-padded graph knowledge (or
        None when no sample has any); ``cross_mask`` is ``(B, 1, 1, H)``
        (True at padded knowledge rows); ``has_history`` is
        ``(B, 1, 1)``.  No batch-dependent array is derived in here, so
        a captured plan links each one back to a feed.  Right-padding
        plus the causal mask keep padded positions out of every real
        position's receptive field, and a sample without knowledge keeps
        its pre-cross-attention sequence.
        """
        attended = self.self_attention.forward_prepared(
            sequence, sequence, sequence, causal
        )
        sequence = self.norm1(sequence + self.drop(attended))
        if history is not None:
            crossed = self.cross_attention.forward_prepared(
                sequence, history, history, cross_mask
            )
            updated = self.norm2(sequence + self.drop(crossed))
            sequence = where(has_history, updated, sequence)
        forwarded = self.feed_forward(sequence).relu()
        return self.norm3(sequence + self.drop(forwarded))


class FusionModule(Module):
    """MP1 (tiles) / MP2 (POIs): N blocks, returns the last position."""

    def __init__(
        self, dim: int, num_heads: int = 4, num_layers: int = 2, dropout: float = 0.1, rng=None
    ):
        super().__init__()
        rng = rng or default_rng()
        self.blocks = ModuleList(
            [AttentionBlock(dim, num_heads, dropout=dropout, rng=rng) for _ in range(num_layers)]
        )

    def forward_batch(
        self,
        sequence: Tensor,
        positions: np.ndarray,
        causal: np.ndarray,
        history: Optional[Tensor] = None,
        cross_mask: Optional[np.ndarray] = None,
        has_history: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Padded-batch fusion: ``(B, L, dim)`` -> ``(B, dim)``.

        Row b of the output is position ``positions[b]`` (each sample's
        last real step, ``length - 1``) of the final sequence — h_out,
        the representation used for candidate ranking.  The masks are
        those of :meth:`AttentionBlock.forward_batch`.  Fully
        differentiable: the final gather scatters upstream gradients
        back to each sample's last real position.
        """
        out = sequence
        for block in self.blocks:
            out = block.forward_batch(out, causal, history, cross_mask, has_history)
        return gather_at(out, positions)
