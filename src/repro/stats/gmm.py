"""Gaussian Mixture Model fitted with Expectation-Maximisation.

Section V-B of the paper estimates the prior distribution of GBDs by fitting
a user-chosen number ``K`` of Gaussian components to the GBDs of sampled
graph pairs (Equation 13) and reading discrete probabilities through the
continuity correction (Equation 14).

The implementation is a from-scratch univariate EM fit (no sklearn), with

* k-means++-style seeding of the component means,
* a variance floor to keep components from collapsing onto repeated
  integer-valued samples (GBDs are integers),
* a deterministic ``seed`` so offline pre-processing is reproducible, and
* one vectorised EM loop (:meth:`GaussianMixtureModel.fit`): each
  iteration computes the responsibilities, the M-step and the
  log-likelihood as array operations over all samples at once — the
  ``O(N · K)`` density evaluations per iteration that dominate the paper's
  offline cost (Table IV).

The per-sample scalar loop the vectorised one was derived from is kept as a
test oracle (:func:`repro.testing.oracles.fit_gmm_oracle`); the two agree to
floating-point round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConvergenceError
from repro.stats.distributions import continuity_corrected_pmf, normal_pdf
from repro.stats.sampling import RandomState, as_rng, decode_rng_state, encode_rng_state

__all__ = ["GaussianMixtureModel", "MixtureComponent"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Stand-in density total when every component density of a sample
#: underflows to zero: the sample is assigned uniformly and the
#: log-likelihood stays finite.
_DENSITY_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class MixtureComponent:
    """A single Gaussian component ``π · N(μ, σ²)``."""

    weight: float
    mean: float
    std: float


class GaussianMixtureModel:
    """Univariate Gaussian mixture fitted with EM.

    Parameters
    ----------
    num_components:
        Number of mixture components ``K`` (user chosen, as in the paper).
    seed:
        Seed (or ``random.Random``) controlling the k-means++ initialisation
        and the re-seeding of a component that dies during EM.
    """

    #: Maximum EM iterations (``ℓ`` in the paper's complexity analysis).
    max_iterations = 200
    #: Relative log-likelihood improvement below which EM stops early.
    tolerance = 1e-6
    #: Lower bound on component variances; prevents degenerate spikes when
    #: many samples share the same integer value.
    variance_floor = 1e-3

    def __init__(self, num_components: int = 3, *, seed: RandomState = 0) -> None:
        if num_components < 1:
            raise ValueError("num_components must be at least 1")
        self.num_components = num_components
        # Keep the original integer seed (when one was given) so to_state /
        # from_state can round-trip it; the live random stream is preserved
        # separately so a reloaded model refits exactly like the original.
        self._seed: Optional[int] = seed if isinstance(seed, int) else None
        self._rng = as_rng(seed)
        self.components: List[MixtureComponent] = []
        self.log_likelihood_: Optional[float] = None
        self.n_iterations_: int = 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, samples: Sequence[float]) -> "GaussianMixtureModel":
        """Fit the mixture to 1-D ``samples`` and return ``self``.

        EM starts from the k-means++ means, the overall variance and equal
        weights, and stops when the relative log-likelihood improvement
        falls below ``tolerance`` or after ``max_iterations``.  The random
        stream is drawn from again only when a component dies (its
        responsibilities sum to ~0): it is re-seeded on a random sample.
        """
        data = [float(x) for x in samples]
        if not data:
            raise ConvergenceError("cannot fit a mixture to an empty sample")
        k = min(self.num_components, len(set(data))) or 1

        x = np.asarray(data, dtype=np.float64)
        n = x.size
        means = np.array(self._initial_means(data, k), dtype=np.float64)
        overall_variance = max(_variance(data), self.variance_floor)
        variances = np.full(k, overall_variance)
        weights = np.full(k, 1.0 / k)

        previous_log_likelihood = -math.inf
        n_iterations = 0
        for iteration in range(1, self.max_iterations + 1):
            # E-step: (n, k) responsibilities in one shot.
            stds = np.sqrt(variances)
            z = (x[:, None] - means[None, :]) / stds[None, :]
            densities = weights[None, :] * np.exp(-0.5 * z * z) / (stds[None, :] * _SQRT_2PI)
            totals = densities.sum(axis=1)
            underflow = totals <= 0.0
            if underflow.any():
                densities[underflow, :] = _DENSITY_UNDERFLOW / k
                totals = np.where(underflow, _DENSITY_UNDERFLOW, totals)
            responsibilities = densities / totals[:, None]
            log_likelihood = float(np.log(totals).sum())

            # M-step: per-component reductions over all samples at once.
            for j in range(k):
                resp_j = responsibilities[:, j]
                total_resp = float(resp_j.sum())
                if total_resp <= 1e-12:
                    # dead component: re-seed it on a random sample
                    means[j] = self._rng.choice(data)
                    variances[j] = overall_variance
                    weights[j] = 1.0 / n
                    continue
                weights[j] = total_resp / n
                means[j] = float(resp_j @ x) / total_resp
                variances[j] = max(
                    float(resp_j @ np.square(x - means[j])) / total_resp, self.variance_floor
                )
            weights = weights / weights.sum()

            n_iterations = iteration
            improvement = log_likelihood - previous_log_likelihood
            previous_log_likelihood = log_likelihood
            if abs(improvement) < self.tolerance * max(abs(log_likelihood), 1.0):
                break

        self.n_iterations_ = n_iterations
        self.log_likelihood_ = previous_log_likelihood
        self.components = [
            MixtureComponent(weight=float(w), mean=float(m), std=math.sqrt(v))
            for w, m, v in zip(weights, means, variances.tolist())
        ]
        return self

    def _initial_means(self, data: List[float], k: int) -> List[float]:
        """k-means++-style seeding: spread the initial means across the data.

        Seeding prefers *unseen* values: a value already chosen as a mean
        has squared distance zero and is skipped during the D²-weighted
        draw — the with-replacement pick used to let a zero threshold (or
        the rounding fallback) duplicate a mean, wasting components on
        identical starts with integer-heavy data.  The ``total <= 0``
        branch is a guard for the fully degenerate case (every squared
        distance zero, possible only when k exceeds the distinct-value
        count or through underflow) and likewise tries unseen distinct
        values before repeating one.
        """
        means: List[float] = [self._rng.choice(data)]
        seen = set(means)
        while len(means) < k:
            distances = [min((x - m) ** 2 for m in means) for x in data]
            total = sum(distances)
            if total <= 0:
                # Every data point coincides with a chosen mean; prefer an
                # unseen distinct value over re-seeding a duplicate.
                unseen = sorted(set(data) - seen)
                chosen = self._rng.choice(unseen) if unseen else self._rng.choice(data)
                means.append(chosen)
                seen.add(chosen)
                continue
            threshold = self._rng.random() * total
            cumulative = 0.0
            chosen = None
            fallback = None
            for x, distance in zip(data, distances):
                if distance <= 0.0:
                    # zero-weight point (already a mean): never select it,
                    # even when the threshold lands exactly on its cumulative
                    continue
                fallback = x
                cumulative += distance
                if cumulative >= threshold:
                    chosen = x
                    break
            if chosen is None:
                # floating-point rounding left the threshold unreached; the
                # last positive-weight value is the correct tail pick
                chosen = fallback
            means.append(chosen)
            seen.add(chosen)
        return means

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> None:
        if not self.components:
            raise ConvergenceError("the mixture model has not been fitted yet")

    def pdf(self, x: float) -> float:
        """Mixture probability density ``f(x) = Σ_i π_i N(x; μ_i, σ_i)`` (Equation 13)."""
        self._require_fitted()
        return sum(c.weight * normal_pdf(x, c.mean, c.std) for c in self.components)

    def discrete_probability(self, value: int) -> float:
        """Continuity-corrected ``Pr[X = value]`` (Equation 14)."""
        self._require_fitted()
        return continuity_corrected_pmf(
            value,
            [c.weight for c in self.components],
            [c.mean for c in self.components],
            [c.std for c in self.components],
        )

    def sample(self, n: int, *, seed: RandomState = None) -> List[float]:
        """Draw ``n`` samples from the fitted mixture (for tests and examples)."""
        self._require_fitted()
        rng = as_rng(seed)
        weights = [c.weight for c in self.components]
        samples = []
        for _ in range(n):
            component = rng.choices(self.components, weights=weights, k=1)[0]
            samples.append(rng.gauss(component.mean, component.std))
        return samples

    # ------------------------------------------------------------------ #
    # serialization (used by the serving snapshot layer)
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict:
        """Return the fitted parameters as a plain, pickle/JSON-friendly dict.

        Besides the component parameters the state carries the original
        ``seed`` and the *current* random-stream state, so a model rebuilt
        with :meth:`from_state` refits on the exact same stream as the live
        instance — previously the seed was silently dropped and a reloaded
        model refitted with the default ``seed=0``.
        """
        self._require_fitted()
        return {
            "num_components": self.num_components,
            "components": [(c.weight, c.mean, c.std) for c in self.components],
            "log_likelihood": self.log_likelihood_,
            "n_iterations": self.n_iterations_,
            "seed": self._seed,
            "rng_state": encode_rng_state(self._rng),
        }

    @classmethod
    def from_state(cls, state: dict) -> "GaussianMixtureModel":
        """Rebuild a fitted mixture from :meth:`to_state` output.

        A ``"backend"`` key, written by builds that had a choice of EM loop,
        is ignored: the fitted parameters do not depend on it.
        """
        seed = state.get("seed")
        model = cls(int(state["num_components"]), seed=seed if seed is not None else 0)
        model._seed = seed
        if state.get("rng_state") is not None:
            model._rng = decode_rng_state(state["rng_state"])
        model.components = [
            MixtureComponent(weight=float(w), mean=float(m), std=float(s))
            for w, m, s in state["components"]
        ]
        model.log_likelihood_ = state.get("log_likelihood")
        model.n_iterations_ = int(state.get("n_iterations", 0))
        return model

    def __repr__(self) -> str:
        if not self.components:
            return f"<GaussianMixtureModel K={self.num_components} (unfitted)>"
        parts = ", ".join(
            f"(π={c.weight:.2f}, μ={c.mean:.2f}, σ={c.std:.2f})" for c in self.components
        )
        return f"<GaussianMixtureModel {parts}>"


def _variance(data: Sequence[float]) -> float:
    """Population variance of ``data`` (0.0 for constant/singleton data)."""
    if len(data) < 2:
        return 0.0
    mean = sum(data) / len(data)
    return sum((x - mean) ** 2 for x in data) / len(data)
