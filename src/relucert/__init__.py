"""Robustness certification for piecewise-linear ReLU networks.

Encodes the search for a minimal L-infinity adversarial perturbation as a
linear program over the affine piece containing the seed input, solves it
with a dual simplex that adds the piece's rows as lazy cuts, and aggregates
the per-point results into adversarial frequency / severity statistics.
Includes an exact enumeration oracle for tiny networks, a trainer, the
signed-gradient baseline attack, and an adversarial fine-tuning loop.
"""

__version__ = "0.1.0"

from .affine import AffineVector, affine_dense, maxpool_fix, relu_fix
from .encoder import (DisjunctiveEncoding, LinearRegion, build_disjunctive,
                      extract_region, output_constraints)
from .lp import LazyStats, LPSolution, SimplexError, lazy_solve
from .metrics import RobustnessCurve, RobustnessStats, compute_curve, compute_stats
from .model import (Conv, Dataset, DatasetError, Dense, LabeledPoint, MaxPool, ModelError,
                    Network, Relu, classify, forward, forward_batch, load_dataset,
                    load_model, networks_equal, save_model, second_label)
from .oracle import (ExactResult, exact_robustness, grid_robustness,
                     pattern_robustness, satisfiable_at, satisfiable_labels)
from .robustness import (RobustnessRecord, extract_adversarial, pointwise_robustness,
                         record_from_json, record_to_json, verify_record)
from .train import (Gradient, TrainConfig, accuracy, fgsm, finetune, input_gradient,
                    loss_and_gradients, train)
