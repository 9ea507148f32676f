"""Synthetic data: name corpora, fraud rings, and name-change datasets.

The paper evaluates on 44M proprietary Google-account names.  This package
substitutes a synthetic equivalent that preserves the properties the
algorithms are sensitive to:

* realistic multi-token names with a **Zipf-like token popularity**
  distribution, so high-frequency tokens ("John", "Mary") exist and the
  ``M`` cut-off is meaningful (Sec. III-G.2);
* **fraud-ring perturbations** -- the adversarial token edits, shuffles,
  abbreviations and splits the paper motivates ("Barak Obama" ->
  "Obamma, Boraak H.", Sec. I-A);
* **name-change pairs** (legitimate small edits vs drastic fraudulent
  renames) for the ROC experiment of Sec. V-D / Fig. 6.

Everything is seeded and deterministic.
"""

from repro.data.datasets import evaluation_corpus, name_change_dataset
from repro.data.fraud import FraudRingGenerator, corpus_with_rings
from repro.data.names import NameGenerator

__all__ = [
    "NameGenerator",
    "FraudRingGenerator",
    "corpus_with_rings",
    "evaluation_corpus",
    "name_change_dataset",
]
