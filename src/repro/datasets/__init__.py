"""Dataset generators, loaders, and the dataset registry.

The paper evaluates on four real datasets (AIDS, Fingerprint, GREC from the
IAM graph database, and the NCI AIDS Antiviral Screen Data) plus two
synthetic collections with known pairwise GEDs (Syn-1 scale-free, Syn-2
random).  The real datasets are not redistributable/downloadable in this
offline environment, so this subpackage provides:

* the Appendix-I style **known-GED family generator**
  (:mod:`repro.datasets.synthetic`) used for Syn-1/Syn-2 and, in
  domain-flavoured form, for the real-data look-alikes;
* look-alike generators matching the published Table III statistics
  (:mod:`repro.datasets.molecules`, :mod:`~repro.datasets.fingerprints`,
  :mod:`~repro.datasets.grec`, :mod:`~repro.datasets.aasd`);
* a GXL/CXL parser (:mod:`repro.datasets.iam`) so the genuine IAM data can
  be dropped in when available;
* a :class:`~repro.datasets.registry.Dataset` container and registry binding
  each named dataset to its generator.
"""

from repro.datasets.registry import Dataset, GroundTruth, DATASET_BUILDERS
from repro.datasets.synthetic import (
    KnownGEDFamily,
    find_modification_center,
    make_known_ged_family,
    make_syn1,
    make_syn2,
)
from repro.datasets.molecules import make_aids_like
from repro.datasets.fingerprints import make_fingerprint_like
from repro.datasets.grec import make_grec_like
from repro.datasets.aasd import make_aasd_like

__all__ = [
    "Dataset",
    "GroundTruth",
    "DATASET_BUILDERS",
    "KnownGEDFamily",
    "find_modification_center",
    "make_known_ged_family",
    "make_syn1",
    "make_syn2",
    "make_aids_like",
    "make_fingerprint_like",
    "make_grec_like",
    "make_aasd_like",
]
