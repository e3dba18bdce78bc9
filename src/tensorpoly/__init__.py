"""tensorpoly: polynomial function learning via rank-one tensor terms.

The package exports the names the README and the demos use; the loss,
gradients and ADAM, the baselines, the benchmark runner and the CLI are
imported from their submodules.
"""

from .model import Dataset, LtrModel, predict
from .training import TrainConfig, fit
from .datagen import GeneratorSpec, generate_model, sample_dataset, quadratics_dataset
from .metrics import cross_validate, pearson

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "GeneratorSpec",
    "LtrModel",
    "TrainConfig",
    "cross_validate",
    "fit",
    "generate_model",
    "pearson",
    "predict",
    "quadratics_dataset",
    "sample_dataset",
]
