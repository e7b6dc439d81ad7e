#!/usr/bin/env python3
"""Three-theory comparison for the entangled pair of oscillators.

Writes a lag/qm/bohm/nelson table and, optionally, Monte Carlo estimates
with error bars on top of the exact curves.  The quantum correlation
oscillates forever, the Bohm one is frozen at its equal-time value, and
the Nelson one relaxes monotonically to the square of the one-sided mean.

    python scripts/run_comparison.py --out comparison.csv --mc-paths 20000
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stochmech import (  # noqa: E402
    Observable,
    build_composite_state,
    compare_theories,
    estimate_two_time,
    harmonic_eigensystem,
    regularized_drift,
    sample_stationary,
    simulate_ensemble,
)
from stochmech.serialize import write_csv  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--max-lag", type=float, default=4.0 * math.pi)
    ap.add_argument("--steps", type=int, default=64)
    ap.add_argument("--mc-paths", type=int, default=0, help="0 disables Monte Carlo")
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="comparison.csv")
    args = ap.parse_args()

    es = harmonic_eigensystem(args.omega, 2)
    c = 1.0 / math.sqrt(2.0)
    state = build_composite_state([es, es], [(c, (0, 1)), (c, (1, 0))])
    f = Observable("position", 0)
    g = Observable("position", 1)
    # lags on the dt grid, so that the Monte Carlo can store each of them
    per_lag = max(1, round(args.max_lag / (args.steps * args.dt)))
    lags = [i * per_lag * args.dt for i in range(args.steps + 1)]
    result = compare_theories(state, f, g, lags[1:])

    header = ["lag", "qm", "bohm", "nelson"]
    rows = [
        [lag, q, b, n]
        for lag, q, b, n in zip(
            result.qm.lags, result.qm.values, result.bohm.values, result.nelson.values
        )
    ]

    if args.mc_paths > 0:
        drift = regularized_drift(state, args.epsilon)
        init = sample_stationary(state, args.mc_paths, args.seed)
        ens = simulate_ensemble(drift, init, args.dt, lags, args.seed)
        header += ["mc", "mc_stderr"]
        for row in rows:
            value, stderr = estimate_two_time(ens, f, g, row[0], 0.0)
            row += [value, stderr]

    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    print(
        f"max |qm - bohm| = {result.max_abs_dev_qm_bohm:.4f}, "
        f"max |qm - nelson| = {result.max_abs_dev_qm_nelson:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
