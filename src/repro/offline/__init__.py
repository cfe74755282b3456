"""repro.offline — the incrementally refittable offline stage.

The offline stage (Step 1 of Algorithm 1) is the dominant cost in the
paper's Table IV analysis.  One function runs it from scratch,
:meth:`repro.core.estimator.GBDAEstimator.fit` (pair GBDs read off the
database's branch store, the vectorised EM of
:class:`~repro.stats.gmm.GaussianMixtureModel`, the Jeffreys grid);
:class:`~repro.core.search.GBDASearch` calls it once, and this subpackage
keeps its result fresh:

* :class:`~repro.offline.fitter.OfflineFitter` — runs that full fit, then
  reads the graphs added to the database since (``database[fitted_revision:]``),
  samples their GBDs off the database's branch store, and refits the priors
  incrementally; each (re)fit bumps the model version and can be persisted
  as a stamped serving snapshot.

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
