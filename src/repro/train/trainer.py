"""Training loop shared by TSPN-RA and the learned baselines.

Implements the paper's protocol: Adam with exponentially decayed
learning rate, mini-batches of samples, loss summed per batch.

Both loss contracts take the shared per-batch state returned by
``compute_embeddings()`` (``()`` for stateless models):

* ``loss_batch(samples, *shared)`` — the *summed* loss of a whole
  mini-batch.  The trainer calls it whenever the model has one;
  TSPN-RA computes it in one padded, differentiable forward pass (one
  ``(batch, seq, dim)`` encode), and ``PredictorBase`` supplies a
  default that sums ``loss_sample``.  Implementations must return the
  sum — the trainer applies the ``1/len(batch)`` scaling itself.
* ``loss_sample(sample, *shared)`` — the scalar loss of one sample.
  Models without ``loss_batch`` still train: the trainer sums these
  over the mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..data.trajectory import PredictionSample
from ..optim import Adam, ExponentialDecay
from ..utils.rng import spawn


@dataclass
class TrainConfig:
    """Training hyper-parameters.

    The paper trains 40 epochs at lr=2e-5 with batch size 8 on GPU;
    the scaled-down CPU default is fewer epochs at a proportionally
    larger learning rate (the Fig. 10 bench sweeps both).
    """

    epochs: int = 3
    batch_size: int = 8
    lr: float = 2e-3
    lr_decay: float = 0.95
    max_grad_norm: float = 5.0
    max_train_samples: Optional[int] = None
    seed: int = 0
    verbose: bool = False


@dataclass
class TrainHistory:
    """Per-epoch mean loss (plus anything callbacks append)."""

    epoch_losses: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    def improved(self) -> bool:
        """Did loss go down from first to last epoch?"""
        return len(self.epoch_losses) >= 2 and self.epoch_losses[-1] < self.epoch_losses[0]


class Trainer:
    """Mini-batch trainer."""

    def __init__(self, model, config: Optional[TrainConfig] = None):
        self.model = model
        self.config = config or TrainConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.lr,
            max_grad_norm=self.config.max_grad_norm,
        )
        self.scheduler = ExponentialDecay(self.optimizer, gamma=self.config.lr_decay)

    @property
    def batched(self) -> bool:
        """Whether training will go through ``loss_batch``."""
        return callable(getattr(self.model, "loss_batch", None))

    def fit(
        self,
        samples: Sequence[PredictionSample],
        epoch_callback: Optional[Callable[[int, float], None]] = None,
    ) -> TrainHistory:
        rng = spawn(self.config.seed)
        samples = list(samples)
        if self.config.max_train_samples is not None and len(samples) > self.config.max_train_samples:
            picked = rng.choice(len(samples), size=self.config.max_train_samples, replace=False)
            samples = [samples[i] for i in picked]
        history = TrainHistory()
        was_training = getattr(self.model, "training", True)
        self.model.train()
        try:
            for epoch in range(self.config.epochs):
                order = rng.permutation(len(samples))
                losses: List[float] = []
                for start in range(0, len(order), self.config.batch_size):
                    batch = [samples[i] for i in order[start:start + self.config.batch_size]]
                    loss_value = self._train_batch(batch)
                    losses.append(loss_value)
                mean_loss = float(np.mean(losses)) if losses else float("nan")
                history.epoch_losses.append(mean_loss)
                if self.config.verbose:
                    print(f"epoch {epoch + 1}/{self.config.epochs}: loss={mean_loss:.4f}")
                if epoch_callback is not None:
                    epoch_callback(epoch, mean_loss)
                self.scheduler.step()
        finally:
            # restore the caller's train/eval mode (mirrors the
            # evaluator and Predictor.predict_batch) instead of leaving the
            # model unconditionally in train mode
            self.model.train(was_training)
        return history

    def _train_batch(self, batch: Sequence[PredictionSample]) -> float:
        self.optimizer.zero_grad()
        shared = self.model.compute_embeddings()
        if self.batched:
            total = self.model.loss_batch(batch, *shared)
        else:
            total = None
            for sample in batch:
                loss = self.model.loss_sample(sample, *shared)
                total = loss if total is None else total + loss
        total = total * (1.0 / len(batch))
        total.backward()
        self.optimizer.step()
        return float(total.item())
