#!/usr/bin/env python3
"""Rerun the machine-learning toys and print their evaluation numbers.

ridge: penalty-learned log-regularizer vs the closed-form grid optimum.
importance: mean importance of clean vs flipped points, and clean-test
accuracy of a classifier retrained on the learned weights vs the
train+val baseline. poison: clean-test accuracy after retraining on
optimized poisons vs the label-flip baseline.
"""

import argparse

import numpy as np

from bilevel.bench import final_distances, run_trials, trial_groups
from bilevel.problems import accuracy, fit_logistic, importance_values


def trial0(problem, solver, seed):
    """The instance and p0 run_trials builds for trial 0 of a run."""
    (_, factory, gseed), = trial_groups(problem, solver, seed, [0])
    instance = factory(gseed)
    return instance, instance.init_sampler(gseed)


def ridge(seed):
    res = run_trials("ridge", "penalty",
                     cfg=dict(K=4000, T=10, sigma0=0.01, rho0=1e-3,
                              gamma0=1.0, eps0=1.0, lambda0=0.0),
                     trials=3, seed=seed, record_every=4000)
    errs = final_distances(res)
    print("ridge |u - u*_grid| per trial:",
          ", ".join(f"{e:.2e}" for e in errs))


def importance(seed):
    inst, _ = trial0("importance_toy", "penalty_plain", seed)
    split, mask = inst.info["split"], inst.info["flip_mask"]
    res = run_trials("importance_toy", "penalty_plain",
                     cfg=dict(K=2500, T=20, sigma0=0.05, rho0=0.01,
                              gamma0=300.0, eps0=1.0),
                     trials=1, seed=seed, record_every=2500)
    w = importance_values(res[0].final_point.u)
    X = np.concatenate([split.X_train, split.X_val])
    y = np.concatenate([split.y_train, split.y_val])
    base = fit_logistic(X, y)
    ours = fit_logistic(X, y, sample_weight=np.concatenate(
        [w, np.ones(split.n_val)]))
    print(f"importance: mean weight clean={w[~mask].mean():.2f} "
          f"flipped={w[mask].mean():.2f}; clean-test accuracy "
          f"baseline={100 * accuracy(base, split.X_test, split.y_test):.1f}% "
          f"reweighted={100 * accuracy(ours, split.X_test, split.y_test):.1f}%")


def poison(seed):
    inst, p0 = trial0("poison_toy", "penalty", seed)
    split, retrain = inst.info["split"], inst.info["retrain"]
    res = run_trials("poison_toy", "penalty",
                     cfg=dict(K=2000, T=20, sigma0=0.1, rho0=0.01,
                              gamma0=10.0, eps0=1.0, lambda0=1.0),
                     trials=1, seed=seed, record_every=2000)
    acc_b = accuracy(retrain(p0.u), split.X_test, split.y_test)
    acc_p = accuracy(retrain(res[0].final_point.u), split.X_test,
                     split.y_test)
    print(f"poison: clean-test accuracy label-flip baseline "
          f"{100 * acc_b:.1f}% -> optimized poisons {100 * acc_p:.1f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--which", default="ridge,importance,poison")
    args = ap.parse_args()
    for name in args.which.split(","):
        {"ridge": ridge, "importance": importance, "poison": poison}[
            name.strip()](args.seed)


if __name__ == "__main__":
    main()
