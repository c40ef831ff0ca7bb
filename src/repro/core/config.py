"""Configuration for AMPC/MPC simulations.

The configuration mirrors the parameters of the model in paper §2:

* ``epsilon`` — the space exponent: each machine has space S = Θ(n^ε).
* ``space`` — S, the per-machine space in words.
* ``n_machines`` — P, the number of machines; total space is T = S · P.
* ``budget_multiplier`` — the hidden constant in the O(S) per-round
  query/write budget.

Use :meth:`AMPCConfig.for_input` to derive a consistent configuration from a
problem size, exactly as the paper does: S = n^ε, P = ceil(c·T / S) for total
space T proportional to the input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_EPSILON = 0.5
DEFAULT_BUDGET_MULTIPLIER = 32.0
DEFAULT_SPACE_FACTOR = 2.0


@dataclass(frozen=True)
class AMPCConfig:
    """Immutable parameters of one simulated AMPC deployment.

    Attributes:
        epsilon: space exponent ε ∈ (0, 1); S = Θ(n^ε).
        space: per-machine space S in words.
        n_machines: number of machines P.
        budget_multiplier: per-round read/write budget is
            ``budget_multiplier * space`` (the constant hidden in O(S)).
        strict: if True, exceeding a budget raises
            :class:`~repro.core.errors.BudgetExceededError`; if False the
            violation is recorded in the round statistics and execution
            continues (useful at small n where w.h.p. bounds have not kicked
            in yet).
        max_words: constant-size bound on each key and each value.
        seed: master RNG seed; all randomness (sampling, permutations, key
            placement) derives from it, making runs reproducible.
        replication_factor: number of DDS servers holding each key-value
            pair. 1 (the default) is the paper's base model; k > 1 enables
            failover reads when serving machines fail (§2.1's practicality
            argument, exercised by :mod:`repro.core.chaos`).
        read_budget / write_budget: the reads / writes a machine may
            issue in one round, ``max(1, int(budget_multiplier * space))``
            (the O(S) bound). Derived, not settable.
    """

    epsilon: float = DEFAULT_EPSILON
    space: int = 1024
    n_machines: int = 16
    budget_multiplier: float = DEFAULT_BUDGET_MULTIPLIER
    strict: bool = False
    max_words: int = 8
    seed: int = 0
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.space < 1:
            raise ValueError(f"space must be >= 1, got {self.space}")
        if self.n_machines < 1:
            raise ValueError(f"n_machines must be >= 1, got {self.n_machines}")
        if self.budget_multiplier <= 0:
            raise ValueError("budget_multiplier must be positive")
        if self.max_words < 1:
            raise ValueError("max_words must be >= 1")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, "
                f"got {self.replication_factor}"
            )
        # Read on every charged op, so computed once: the config is frozen.
        budget = max(1, int(self.budget_multiplier * self.space))
        object.__setattr__(self, "read_budget", budget)
        object.__setattr__(self, "write_budget", budget)

    @property
    def total_space(self) -> int:
        """T = S · P, the aggregate space of the deployment."""
        return self.space * self.n_machines

    @classmethod
    def for_input(
        cls,
        n_items: int,
        *,
        epsilon: float = DEFAULT_EPSILON,
        space_factor: float = DEFAULT_SPACE_FACTOR,
        seed: int = 0,
        strict: bool = False,
        budget_multiplier: float = DEFAULT_BUDGET_MULTIPLIER,
        min_space: int = 16,
        max_machines: int = 4096,
        replication_factor: int = 1,
    ) -> "AMPCConfig":
        """Derive a deployment for an input of ``n_items`` key-value pairs.

        Sets S = max(min_space, ceil(space_factor · n_items^ε)) and
        P = clamp(ceil(space_factor · n_items / S), 1, max_machines), so the
        total space is Θ(n_items) as the paper requires (T = O(N polylog N)).

        Args:
            n_items: input size N (for a graph, n + m).
            epsilon: space exponent ε.
            space_factor: constant factor on S and T.
            seed: master RNG seed.
            strict: raise on budget violations.
            budget_multiplier: hidden constant of the O(S) budgets.
            min_space: floor on S so tiny test inputs stay runnable.
            max_machines: cap on P to bound simulator bookkeeping overhead.
            replication_factor: DDS replicas per key-value pair.
        """
        if n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {n_items}")
        space = max(min_space, math.ceil(space_factor * n_items**epsilon))
        machines = math.ceil(space_factor * n_items / space)
        machines = min(max(machines, 1), max_machines)
        return cls(
            epsilon=epsilon,
            space=space,
            n_machines=machines,
            budget_multiplier=budget_multiplier,
            strict=strict,
            seed=seed,
            replication_factor=replication_factor,
        )

    def with_seed(self, seed: int) -> "AMPCConfig":
        """Copy of this config with a different master seed."""
        return replace(self, seed=seed)

    def with_replication(self, replication_factor: int) -> "AMPCConfig":
        """Copy of this config with a different DDS replication factor."""
        return replace(self, replication_factor=replication_factor)

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A numpy Generator derived from the master seed and a salt.

        Distinct salts give statistically independent streams, so different
        algorithm stages can draw randomness without coupling.
        """
        return np.random.default_rng(np.random.SeedSequence((self.seed, salt)))
