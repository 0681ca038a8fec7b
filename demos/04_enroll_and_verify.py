"""Enroll users and verify signatures against their one-class models.

Enrollment fits a Gaussian over a user's genuine descriptors; the score
of a new signature is its squared Mahalanobis distance to the user's
mean (not divided by the descriptor length) and the decision threshold
comes from the enrollment scores themselves.  No forgeries are needed to enroll.
"""

import numpy as np

from sigverify import (AeConfig, PatchConfig, calibrate_threshold, describe,
                       fit_user_model, generate_synthetic_corpus,
                       score_descriptor, train_descriptor, verify)


def main():
    corpus = generate_synthetic_corpus(seed=33, n_users=4, n_genuine=10, n_forgery=4)

    # The descriptor model is shared; train it on a disjoint unlabeled pool.
    pool = generate_synthetic_corpus(seed=34, n_users=6, n_genuine=5, n_forgery=0)
    model = train_descriptor(pool.all_trajectories(),
                             patch_cfg=PatchConfig(train_count=6000),
                             ae_cfg=AeConfig(hidden=32, max_iter=100, seed=0),
                             seed=0)
    print(f"shared descriptor model: {model.hidden} dimensions")
    print()

    # Enroll each user on their first 7 genuine signatures.
    enrolled = {}
    for uid in corpus.user_ids():
        train_descs = [describe(t, model) for t in corpus.users[uid].genuine[:7]]
        user_model = fit_user_model(train_descs, reg=0.9)
        train_scores = [score_descriptor(user_model, d) for d in train_descs]
        calibrate_threshold(user_model, train_scores)
        enrolled[uid] = user_model
        print(f"enrolled {uid}: threshold {user_model.threshold:.2f} "
              f"(train scores {min(train_scores):.2f}..{max(train_scores):.2f})")
    print()

    # Verification: held-out genuine signatures should pass, skilled
    # forgeries and other users' signatures should fail.
    uid = corpus.user_ids()[0]
    user_model = enrolled[uid]
    attempts = [(t, "genuine, held out") for t in corpus.users[uid].genuine[7:]]
    attempts += [(t, "skilled forgery") for t in corpus.users[uid].skilled_forgeries[:3]]
    other = corpus.user_ids()[1]
    attempts += [(t, f"random ({other})") for t in corpus.users[other].genuine[7:8]]

    print(f"verification attempts against {uid} "
          f"(threshold {user_model.threshold:.2f})")
    print(f"{'claim':22} {'score':>9} {'decision':>9}")
    correct = 0
    for traj, kind in attempts:
        accepted, s = verify(user_model, describe(traj, model))
        decision = "accept" if accepted else "reject"
        correct += accepted == kind.startswith("genuine")
        print(f"{kind:22} {s:>9.2f} {decision:>9}")
    print(f"{correct}/{len(attempts)} attempts decided correctly")


if __name__ == "__main__":
    main()
