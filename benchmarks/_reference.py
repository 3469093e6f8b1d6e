"""Frozen baseline arms: the slower paths the product replaced.

Each hot loop in ``src/`` has one production path.  The paths it replaced
live on here, unchanged in behaviour, as the denominators of the speedup
benchmarks and as test oracles:

- :class:`RebuildProposer` — BO proposals without surrogate reuse: every
  call rebuilds the objective GP (no factor extension) and hyperfits the
  cost GP, and every hyperfit is the full multi-start.  The ``rebuild``
  arm of ``bench_p3_surrogate.py``.
- :class:`ScalarCandidateProposer` — BO proposals whose candidates come
  from a per-config loop: ``n_candidates`` :meth:`ConfigSpace.sample`
  calls plus one ``encode_batch``, and a hill-climb over
  :meth:`ConfigSpace.neighbors` dicts re-encoded per step.  The ``scalar``
  arm of ``bench_p5_throughput.py``.
- :class:`FiniteDifferenceGP` — an exact GP whose hyperfit lets L-BFGS-B
  difference the marginal likelihood numerically.  The ``fd`` arm of
  ``bench_p3_surrogate.py``'s ``hyperfit`` axis.
- :func:`scalar_optimum` — the per-config optimum search that
  :func:`~repro.harness.optimum.estimate_optimum` batches, bit-identical
  to it.  The ``scalar`` arm of ``bench_p9_sweep.py``.

Each arm reproduces what the product classes produced when these paths
were still selectable by flag; ``tests/test_reference_arms.py`` pins the
recorded outputs.  Import with ``benchmarks/`` on ``sys.path``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.bo import BayesianProposer, _SurrogateCache
from repro.core.gp import _LOG_NOISE_BOUNDS, GaussianProcess
from repro.mlsim import TrainingEnvironment


class _RebuildCache(_SurrogateCache):
    """A surrogate cache that never extends and always runs the multi-start."""

    def update(self, x, y, factory, optimize, noise_scale=None):
        self.gp = None
        self._multi_start_n = None
        return super().update(x, y, factory, optimize, noise_scale=noise_scale)


class RebuildProposer(BayesianProposer):
    """:class:`BayesianProposer` with no surrogate reuse between calls.

    The objective GP is rebuilt from scratch on every proposal (refitting
    hyperparameters on the usual real-trial cadence) and the ``"eipc"``
    cost GP is hyperfit on every proposal.  A conservative baseline: its
    hyperfits still use analytic gradients.
    """

    def __init__(self, space: ConfigSpace, **kwargs) -> None:
        super().__init__(space, **kwargs)
        self._objective_cache = _RebuildCache()
        self._cost_cache = _RebuildCache()

    def apply_retuning(self, before_index: int, discount: Optional[float] = None) -> None:
        super().apply_retuning(before_index, discount=discount)
        self._objective_cache = _RebuildCache()
        self._cost_cache = _RebuildCache()

    def _fit_cost_model(self, history, refit_due):
        return super()._fit_cost_model(history, True)


class _ScalarNeighbors:
    """A config space whose ``neighbors_batch`` is the scalar per-config loop."""

    def __init__(self, space: ConfigSpace) -> None:
        self._space = space

    def __getattr__(self, name):
        return getattr(self._space, name)

    def neighbors_batch(self, config, rng, base_row=None):
        moves = self._space.neighbors(config, rng)
        return self._space.encode_batch(moves), moves


class ScalarCandidateProposer(BayesianProposer):
    """:class:`BayesianProposer` with per-config candidate generation.

    Draws candidates one :meth:`ConfigSpace.sample` call at a time (the
    historical RNG stream) and encodes them in one ``encode_batch``; the
    hill-climb re-encodes each step's :meth:`ConfigSpace.neighbors` dicts.
    Surrogates, scoring and the refit schedule are the product's.
    """

    def __init__(self, space: ConfigSpace, **kwargs) -> None:
        super().__init__(_ScalarNeighbors(space), **kwargs)

    def _candidate_matrix(self, history, rng):
        candidates: List[ConfigDict] = [
            self.space.sample(rng) for _ in range(self.n_candidates)
        ]
        best = history.best()
        if best is not None:
            candidates.extend(self.space.neighbors(best.config, rng))
            candidates.append(dict(best.config))
        return self.space.encode_batch(candidates), candidates.__getitem__


class FiniteDifferenceGP(GaussianProcess):
    """Exact GP whose multi-start hyperfit uses finite-difference gradients.

    Same starts, bounds, optimiser settings and best-of reduction as
    :class:`GaussianProcess`; L-BFGS-B gets only the marginal-likelihood
    value and differences it itself.  Runs in-process (``fit_workers`` is
    ignored).
    """

    def _optimize_hyperparameters(self) -> None:
        bounds = self.kernel.param_bounds()
        if self.fit_noise:
            bounds = bounds + [_LOG_NOISE_BOUNDS]
        rng = np.random.default_rng(self.seed)
        starts = [self._log_params()]
        for _ in range(self.restarts):
            starts.append(np.array([lo + (hi - lo) * rng.random() for lo, hi in bounds]))
        best_val = np.inf
        best_params = starts[0]
        for start in starts:
            result = optimize.minimize(
                self._neg_log_marginal,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 200},
            )
            if result.fun < best_val:
                best_val = float(result.fun)
                best_params = result.x
        self._apply_log_params(best_params)


def scalar_optimum(
    env: TrainingEnvironment,
    space: ConfigSpace,
    samples: int = 3000,
    grid_resolution: int = 3,
    refinement_rounds: int = 30,
    seed: int = 0,
) -> Tuple[ConfigDict, float]:
    """The per-config search behind ``estimate_optimum`` (not memoised).

    Scores the coarse grid, then ``samples`` random configs, then
    single-knob refinement rounds, one ``true_objective`` call per config.
    """
    rng = np.random.default_rng(seed)
    best_config: Optional[ConfigDict] = None
    best_value = -np.inf

    def consider(config: ConfigDict) -> None:
        nonlocal best_config, best_value
        value = env.true_objective(to_training_config(config))
        if value is not None and value > best_value:
            best_config, best_value = dict(config), value

    for config in space.grid(grid_resolution):
        consider(config)
    for config in space.sample_batch(rng, samples):
        consider(config)
    if best_config is None:
        raise RuntimeError("no feasible configuration found while estimating optimum")

    for _ in range(refinement_rounds):
        improved = False
        for neighbor in space.neighbors(best_config, rng):
            value = env.true_objective(to_training_config(neighbor))
            if value is not None and value > best_value:
                best_config, best_value = dict(neighbor), value
                improved = True
        if not improved:
            break
    return best_config, best_value
