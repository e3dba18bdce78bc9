"""Vector-valued outputs and per-factor input views.

With vector outputs each rank-one term carries its own output component
q_t, so the model writes Y ~ F diag(lam) Q. In the multi-view case each
factor d consumes its own input matrix X_d.
"""

import numpy as np

from tensorpoly import Dataset, TrainConfig, fit, pearson, predict

rng = np.random.default_rng(8)

# --- vector-valued regression -------------------------------------------
m, n, n_y = 10_000, 4, 3
X = rng.standard_normal((m, n))
true_P = [rng.standard_normal((3, n)) for _ in range(2)]
true_Q = rng.standard_normal((3, n_y))
F = (X @ true_P[0].T) * (X @ true_P[1].T)
Y = F @ true_Q

cfg = TrainConfig(n_d=2, n_t=3, epochs=15, batch_size=100, learning_rate=0.05,
                  mode="joint", seed=3)
model, report = fit(Dataset(views=[X], Y=Y), cfg)
yhat = predict(model, X)
print("vector-valued fit, per-output Pearson:")
for j in range(n_y):
    print(f"  output {j + 1}: {pearson(Y[:, j], yhat[:, j]):.4f}")

# --- multi-view regression ----------------------------------------------
# two views with different widths, one factor per view
X1 = rng.standard_normal((5000, 3))
X2 = rng.standard_normal((5000, 2))
y = (X1 @ [1.0, -0.5, 0.2]) * (X2 @ [0.7, 1.0])

cfg_mv = TrainConfig(n_d=2, n_t=2, epochs=10, batch_size=100, learning_rate=0.05,
                     mode="joint", seed=4)
model_mv, _ = fit(Dataset(views=[X1, X2], Y=y), cfg_mv)
yhat_mv = predict(model_mv, [X1, X2])
print(f"\nmulti-view fit (views of width {model_mv.dims}):",
      f"Pearson {pearson(y, yhat_mv[:, 0]):.4f}")
