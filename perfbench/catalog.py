"""Metric catalog of the tensorpoly benchmark.

`END_TO_END` and `PER_LAYER` are the single source for the metric names,
units and directions written to BENCHMARK.json; `smoke.py` checks that
the two agree. Each per-layer entry also records which end-to-end metric
it is expected to move, and on which workload.
"""

# name, unit, better, bound (share of the parent's median). ref_s are
# wall seconds scaled to the reference speed of `workloads.Calibration`.
END_TO_END = [
    ("op_s", "ref_s", "lower", 0.25),
    ("fit_samples_per_s", "1/ref_s", "higher", 0.25),
    ("test_pearson", "r", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
]

CLI = "op_s on cli-reference"
FIT = "fit_samples_per_s on fit-*"
SWEEP = "op_s on sweep-degree"

# name, unit, better, what it moves
PER_LAYER = [
    ("cli.startup_s", "s", "lower", CLI + "; setup_s everywhere"),
    ("cli.generate_s", "s", "lower", CLI),
    ("cli.train_s", "s", "lower", CLI),
    ("cli.predict_s", "s", "lower", CLI),
    ("cli.evaluate_s", "s", "lower", CLI),
    ("io.write_dataset_csv_s", "s", "lower", CLI),
    ("io.read_dataset_csv_s", "s", "lower", CLI),
    ("io.write_predictions_csv_s", "s", "lower", CLI),
    ("io.save_model_s", "s", "lower", CLI),
    ("io.load_model_s", "s", "lower", CLI),
    ("io.csv_bytes", "bytes", "lower", CLI),
    ("io.read_MBps", "MB/s", "higher", CLI),
    ("io.write_MBps", "MB/s", "higher", CLI),
    ("datagen.generate_model_s", "s", "lower", "setup_s on fit-*; cli.generate_s"),
    ("datagen.sample_dataset_s", "s", "lower", "setup_s on fit-*; cli.generate_s"),
    ("training.fit_s", "s", "lower", FIT),
    ("training.gather_s", "s", "lower", FIT + ", mostly fit-joint-reference"),
    ("training.gradients_s", "s", "lower", FIT + ", mostly fit-joint-reference"),
    ("training.adam_step_s", "s", "lower", FIT + ", mostly fit-joint-reference"),
    ("training.epoch_loss_s", "s", "lower", FIT),
    ("training.epoch_loss_share", "ratio", "lower", FIT),
    ("training.batches", "count", "lower", FIT),
    ("training.flops", "flop", "lower", "fit_samples_per_s on fit-layered-wide"),
    ("training.bytes", "bytes", "lower", "fit_samples_per_s on fit-layered-wide"),
    ("training.flops_per_byte", "flop/B", "higher", "fit_samples_per_s on fit-layered-wide"),
    ("training.gflops_achieved", "GFLOP/s", "higher", "fit_samples_per_s on fit-layered-wide"),
    ("model.z_factors_s", "s", "lower", FIT + "; cli.predict_s"),
    ("model.hadamard_partials_s", "s", "lower", FIT),
    ("model.predict_rows_per_s", "rows/s", "higher", "cli.predict_s"),
    ("metrics.cross_validate_s", "s", "lower", SWEEP),
    ("metrics.correlation_ratio_s", "s", "lower", "fit_samples_per_s on fit-layered-wide"),
    ("baselines.krr_fit_s", "s", "lower", SWEEP),
    ("baselines.krr_predict_s", "s", "lower", SWEEP),
    ("baselines.linreg_fit_s", "s", "lower", SWEEP),
    ("baselines.fm_fit_gd_s", "s", "lower", SWEEP),
    ("baselines.fm_forward_calls", "count", "lower", SWEEP),
    ("benchmark.run_benchmark_s", "s", "lower", SWEEP),
    ("benchmark.learner_busy_s", "s", "lower", SWEEP),
    ("benchmark.parallel_efficiency", "ratio", "higher", SWEEP),
    ("benchmark.failed_rows", "count", "lower", SWEEP + "; success_rate"),
    ("tracing.overhead_ratio", "ratio", "lower", "nothing: traced over untraced wall time"),
]


def units(trace):
    """Metric name -> unit for the metrics a run prints."""
    return {row[0]: row[1] for row in (PER_LAYER if trace else END_TO_END)}
