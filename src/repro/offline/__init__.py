"""repro.offline — vectorized, incrementally refittable offline stage.

PR 1 made the *online* stage fast (the batched serving engine); this
subpackage does the same for the *offline* stage, the dominant cost in the
paper's Table IV analysis:

* :mod:`~repro.offline.em` — NumPy-vectorized EM inner loop behind
  ``GaussianMixtureModel.fit(backend="numpy")``; responsibilities, M-step
  and log-likelihood as array operations over all samples at once, same
  seeding/convergence semantics as the scalar path (parity within 1e-9);
* :class:`~repro.offline.fitter.OfflineFitter` — reads the graphs added to
  the database since its last fit (``database[fitted_revision:]``), samples
  their GBDs off the database's branch store, and refits the priors
  incrementally; each refit bumps the model version and can be persisted as
  a stamped serving snapshot.

Quickstart
----------
>>> from repro.offline import OfflineFitter
>>> fitter = OfflineFitter(database, max_tau=4).fit()       # doctest: +SKIP
>>> database.add(new_graph)                                 # doctest: +SKIP
>>> fitter.refit()                                          # doctest: +SKIP
>>> fitter.snapshot("engine.v2.snapshot")                   # doctest: +SKIP
"""

from repro.offline.fitter import OfflineFitReport, OfflineFitter

__all__ = [
    "OfflineFitter",
    "OfflineFitReport",
]
