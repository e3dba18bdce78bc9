"""Learning simple two-variable quadratics with four methods.

Linear regression cannot express the interactions at all, the
factorization-machine form only fits the symmetric ones, while kernel
ridge regression and the rank-one-term model handle every case.
"""

import numpy as np

from tensorpoly import TrainConfig, cross_validate, quadratics_dataset
from tensorpoly.benchmark import fm_learner, krr_learner, linreg_learner, ltr_learner

FOLDS = 5
M = 1000

ltr_cfg = TrainConfig(
    n_d=2, n_t=2, epochs=10, batch_size=50, learning_rate=0.05,
    mode="rank_wise", seed=3,
)

learners = {
    "LR": linreg_learner(),
    "KRR": krr_learner(n_d=2, ridge=1e-8),
    "FM": fm_learner(n_d=2, n_t=2, steps=200, restarts=2),
    "LTR": ltr_learner(ltr_cfg),
}

print(f"{FOLDS}-fold CV Pearson (RMSE), m={M}\n")
print(f"{'function':12s}" + "".join(f"{name:>16s}" for name in learners))
for fn, label in (("xy", "x*y"), ("sq_diff", "(x-y)^2"), ("diff_sq", "x^2-y^2")):
    dataset = quadratics_dataset(fn, M, seed=11)
    cells = []
    for learner in learners.values():
        res = cross_validate(dataset, learner, FOLDS, seed=5)
        cells.append(f"{np.mean(res.fold_pearson):+.2f} ({np.mean(res.fold_rmse):.2f})")
    print(f"{label:12s}" + "".join(f"{c:>16s}" for c in cells))

print("\nNote the FM column: perfect on the symmetric x*y, near zero on")
print("the anti-symmetric x^2-y^2, which no symmetric polynomial can fit.")
