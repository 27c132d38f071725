"""Module/Parameter machinery mirroring the familiar torch.nn API.

A :class:`Module` discovers its parameters and sub-modules by attribute
inspection, supports train/eval switching (needed by dropout), and can
serialise its state to plain numpy arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd import Tensor


class Parameter(Tensor):
    """A tensor that is registered as trainable by its owning module.

    ``version`` counts in-place weight updates (optimiser steps,
    ``load_state_dict``); serving caches key off the module-level sum.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.version = 0


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------
    # forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # parameter / module discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if name.startswith("_module_cache"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{full}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{key}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # train / eval, grads, state
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def weights_version(self) -> int:
        """Monotonic token over all parameter updates (cache invalidation).

        Serving reads this on every batch, so the flattened parameter
        list is cached after the first call (``_module_cache`` prefix:
        invisible to ``named_parameters``).  Parameter *objects* are
        stable across optimiser steps and ``load_state_dict`` — both
        rebind ``p.data`` and bump ``p.version`` on the same object —
        so the cache only goes stale if whole sub-modules are grafted
        on after the first call, which no model here does post-init.
        """
        params = getattr(self, "_module_cache_flat_params", None)
        if params is None:
            params = tuple(p for _, p in self.named_parameters())
            self._module_cache_flat_params = params
        return sum(p.version for p in params)

    def compute_embeddings(self) -> tuple:
        """Shared per-batch state for train/inference loops.

        The predictor protocol's convention: models precomputing shared
        tables (e.g. TSPN-RA's E_T/E_P) override this; stateless models
        inherit the empty tuple.
        """
        return ()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Replace every parameter, all or nothing.

        Names and shapes are all checked before the first assignment,
        so a rejected state leaves every parameter's data and
        ``version`` untouched.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
        for name, p in own.items():
            p.data = state[name].copy()
            p.version += 1

    def extra_state(self) -> Dict[str, np.ndarray]:
        """Non-parameter arrays a checkpoint must carry (override as needed)."""
        return {}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        if state:
            raise KeyError(f"unexpected extra state: {sorted(state)}")


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A registered list of sub-modules (iterable, indexable)."""

    def __init__(self, modules=()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container, not callable")
