"""Layered fitting: blocks of ranks against a deflated output.

Each block is fit jointly on what the previous layers left unexplained,
so the training residual norm can only shrink. The correlation ratio of
the per-layer predictions compares between-layer variance of the layer
means to the total variance; for zero-mean targets it stays near 0.
"""

from tensorpoly import (
    GeneratorSpec,
    TrainConfig,
    fit,
    generate_model,
    sample_dataset,
)

spec = GeneratorSpec(n=4, n_d=3, n_t=6, m=10_000, seed=21)
dataset = sample_dataset(generate_model(spec), 10_000, 0.0, seed=22)

cfg = TrainConfig(n_d=3, n_t=6, epochs=10, batch_size=100, learning_rate=0.05,
                  mode="layered", rank_blocks=[2, 2, 2], seed=9)
model, report = fit(dataset, cfg)

print("blocks of 2 ranks, residual norm after each layer:")
for i, norm in enumerate(report.residual_norms):
    label = "start" if i == 0 else f"layer {i}"
    print(f"  {label:8s} {norm:10.3f}")
print("correlation ratio per layer:", [f"{v:.2e}" for v in report.eta_squared])

# one term at a time is the fully decomposed variant of the same idea
cfg_rw = TrainConfig(n_d=3, n_t=6, epochs=10, batch_size=100, learning_rate=0.05,
                     mode="rank_wise", seed=9)
_, report_rw = fit(dataset, cfg_rw)
print("\nrank-wise deflation, residual norm after each term:")
print("  " + " -> ".join(f"{v:.2f}" for v in report_rw.residual_norms))
