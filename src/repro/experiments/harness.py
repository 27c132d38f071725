"""Shared experiment harness: build datasets, train any model, evaluate.

Every table/figure runner goes through these helpers so that TSPN-RA,
its ablation variants and all ten baselines see identical data splits,
training budgets and evaluation protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import make_baseline
from ..core import TSPNRA, TSPNRAConfig
from ..data import Dataset, build_dataset, make_samples, split_samples
from ..data.splits import SplitSamples
from ..eval import evaluate
from ..serve import Predictor
from ..train import TrainConfig, Trainer
from ..utils.rng import spawn
from .profile import ExperimentProfile

ALL_MODELS = (
    "MC",
    "GRU",
    "STRNN",
    "DeepMove",
    "LSTPM",
    "STAN",
    "SAE-NAD",
    "HMT-GRN",
    "Graph-Flashback",
    "STiSAN",
    "TSPN-RA",
)


@dataclass
class PreparedData:
    """Dataset plus its sample splits and normalised POI coordinates."""

    dataset: Dataset
    splits: SplitSamples
    locations: np.ndarray  # unit-square POI coordinates

    @property
    def num_pois(self) -> int:
        return len(self.dataset.city.pois)


def prepare(
    name: str,
    profile: ExperimentProfile,
    seed: Optional[int] = None,
    noise_fraction: float = 0.0,
) -> PreparedData:
    """Build one preset dataset and split its samples 80/10/10."""
    seed = profile.seed if seed is None else seed
    dataset = build_dataset(
        name,
        seed=seed,
        scale=profile.dataset_scale,
        imagery_resolution=profile.imagery_resolution,
        noise_fraction=noise_fraction,
    )
    samples = make_samples(dataset, last_only=False)
    splits = split_samples(samples, seed=seed)
    locations = np.array(
        [dataset.spec.bbox.normalize(x, y) for x, y in dataset.city.pois.xy]
    )
    return PreparedData(dataset=dataset, splits=splits, locations=locations)


def tspnra_config(profile: ExperimentProfile, dataset: Dataset, **overrides) -> TSPNRAConfig:
    """Model config derived from a profile plus the dataset's K."""
    base = dict(
        dim=profile.dim,
        fusion_layers=profile.fusion_layers,
        hgat_layers=profile.hgat_layers,
        top_k=dataset.spec.top_k,
    )
    base.update(overrides)
    return TSPNRAConfig(**base)


def build_model(
    name: str,
    data: PreparedData,
    profile: ExperimentProfile,
    config: Optional[TSPNRAConfig] = None,
    seed: Optional[int] = None,
):
    """Instantiate TSPN-RA or any baseline with a deterministic RNG."""
    rng = spawn((profile.seed if seed is None else seed) + 101)
    if name == "TSPN-RA":
        config = config or tspnra_config(profile, data.dataset)
        return TSPNRA.from_dataset(data.dataset, config, rng=rng)
    return make_baseline(name, data.num_pois, data.locations, dim=profile.dim, rng=rng)


def train_model(
    model,
    data: PreparedData,
    profile: ExperimentProfile,
    seed: Optional[int] = None,
):
    """Train with the profile's budget; dispatches on the model kind."""
    if not model.requires_gradient_training:
        model.fit(data.splits.train)
        return None
    if hasattr(model, "fit_transition_graph"):
        model.fit_transition_graph(data.splits.train)
    trainer = Trainer(
        model,
        TrainConfig(
            epochs=profile.epochs,
            batch_size=profile.batch_size,
            lr=profile.lr,
            max_train_samples=profile.max_train_samples,
            seed=profile.seed if seed is None else seed,
        ),
    )
    return trainer.fit(data.splits.train)


def eval_model(model, data: PreparedData, profile: ExperimentProfile) -> Dict[str, float]:
    test = data.splits.test
    if profile.eval_samples is not None:
        test = test[: profile.eval_samples]
    return evaluate(model, test)


def make_predictor(model, graph_cache_size: int = 256) -> Predictor:
    """Wrap a trained model in the serving facade (``repro.serve``)."""
    return Predictor(model, graph_cache_size=graph_cache_size)


def run_one(
    model_name: str,
    data: PreparedData,
    profile: ExperimentProfile,
    config: Optional[TSPNRAConfig] = None,
    seed: Optional[int] = None,
) -> Tuple[Dict[str, float], object]:
    """Train + evaluate one model; returns (metrics, trained model)."""
    model = build_model(model_name, data, profile, config=config, seed=seed)
    train_model(model, data, profile, seed=seed)
    return eval_model(model, data, profile), model


def run_comparison(
    dataset_name: str,
    profile: ExperimentProfile,
    models: Sequence[str] = ALL_MODELS,
) -> Dict[str, Dict[str, float]]:
    """Train/evaluate a list of models on one dataset (Tables II/III)."""
    data = prepare(dataset_name, profile)
    results: Dict[str, Dict[str, float]] = {}
    for model_name in models:
        metrics, _ = run_one(model_name, data, profile)
        results[model_name] = metrics
    return results
