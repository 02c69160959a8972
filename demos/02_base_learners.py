"""Base learners and their logarithmic static regret.

The pool machinery assumes each copy of the base learner has O(log T)
regret against the best fixed prediction.  Two learners ship with the
package: the add-half estimator for binary outcomes under log loss, and
the running mean for bounded outcomes under square loss.  This script
traces both regrets against the log bound and shows what restarting a
learner at segment boundaries buys on drifting data.
"""

import math

import numpy as np

from mixtrack import KTEstimator, RunningMean, make_loss
from mixtrack.base import restart_loss, static_regret


def regret_curve(base, loss, xs, checkpoints):
    out = []
    for T in checkpoints:
        out.append(static_regret(base, loss, xs[:T]))
    return out


def main():
    rng = np.random.default_rng(7)
    T = 10_000
    checkpoints = [10, 100, 1_000, 10_000]

    # --- add-half estimator under log loss --------------------------------
    kt, bern = KTEstimator(), make_loss("bernoulli")
    bits = (rng.random(T) < 0.3).astype(float)
    print("add-half estimator on Bernoulli(0.3) bits:")
    print(f"  {'T':>6} {'regret':>9} {'0.5 log T + 1':>14}")
    for T_, reg in zip(checkpoints, regret_curve(kt, bern, bits, checkpoints)):
        print(f"  {T_:>6} {reg:>9.4f} {0.5 * math.log(T_) + 1:>14.4f}")

    # worst case for the estimator is a deterministic stream
    ones = np.ones(1_000)
    print(f"  all-ones stream, T=1000: regret {static_regret(kt, bern, ones):.4f}"
          f" vs bound {0.5 * math.log(1_000) + 1:.4f}")

    # --- running mean under square loss ------------------------------------
    rm, sq = RunningMean(), make_loss("square")
    vals = rng.uniform(-1, 1, T)
    print("\nrunning mean on uniform[-1,1] data:")
    print(f"  {'T':>6} {'regret':>9} {'2 log T':>9}")
    for T_, reg in zip(checkpoints, regret_curve(rm, sq, vals, checkpoints)):
        print(f"  {T_:>6} {reg:>9.4f} {2 * math.log(T_):>9.4f}")

    # predictions are the same whether computed in bulk or by stepping one row
    row, stepped = rm.init_rows(1), []
    for x in vals[:100]:
        stepped.append(rm.predict_rows(row)[0])
        rm.update_rows(row, x)
    assert rm.predictions(vals[:100]).tobytes() == np.array(stepped).tobytes()

    # --- what restarting buys on drifting data -----------------------------
    drift = np.concatenate([rng.normal(0.6, 0.2, 2_000), rng.normal(-0.6, 0.2, 2_000)])
    drift = np.clip(drift, -1, 1)
    stale = static_regret(rm, sq, drift) + float(
        np.sum(sq.evaluate_pairs(np.full(4_000, sq.best_fixed(drift)), drift))
    )
    fresh = restart_loss(rm, sq, drift, [2_000, 2_000])
    print("\nmean flips +0.6 -> -0.6 halfway through 4000 rounds:")
    print(f"  one long run   loss {stale:9.2f}")
    print(f"  restart at flip loss {fresh:9.2f}")
    print("  the gap is what the calendar machinery recovers without knowing the flip round")


if __name__ == "__main__":
    main()
