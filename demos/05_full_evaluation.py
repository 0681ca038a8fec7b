"""Measure verification accuracy with the k-fold evaluation harness.

Every user's genuine signatures are split into k folds; each fold trains
the one-class model and the rest are scored together with skilled
forgeries and all other users' signatures.  Per-user ROC curves pool the
scores across folds; the headline number is the mean equal error rate.
"""

from sigverify import (AeConfig, PatchConfig, describe_baseline, eer,
                       format_report, generate_synthetic_corpus,
                       run_experiment, train_descriptor)


def main():
    corpus = generate_synthetic_corpus(seed=21, n_users=8, n_genuine=10, n_forgery=6)
    pool = generate_synthetic_corpus(seed=22, n_users=6, n_genuine=5, n_forgery=0)
    model = train_descriptor(pool.all_trajectories(),
                             patch_cfg=PatchConfig(train_count=6000),
                             ae_cfg=AeConfig(hidden=32, max_iter=100, seed=0),
                             seed=0)

    report = run_experiment(corpus, model, k=4, reg=0.9, seed=0)
    print(format_report(report))

    # The same harness with raw whitened pixels instead of the learned
    # encoding gives the reference point the descriptor must beat.
    baseline = run_experiment(corpus, model, k=4, reg=0.9, seed=0,
                              describe_fn=describe_baseline)
    print(f"learned descriptor mean EER:  {report.mean_eer:.4f}")
    print(f"raw-pixel baseline mean EER:  {baseline.mean_eer:.4f}")
    print()

    # A few operating points from one user's pooled ROC curve.
    uid = sorted(report.per_user)[0]
    curve = report.per_user[uid].roc
    print(f"ROC of {uid} (EER {eer(curve):.4f}), every 20th point:")
    print(f"{'threshold':>12} {'FAR':>8} {'FRR':>8}")
    for i in range(0, len(curve.thresholds), 20):
        print(f"{curve.thresholds[i]:>12.3f} {curve.far[i]:>8.4f} {curve.frr[i]:>8.4f}")


if __name__ == "__main__":
    main()
