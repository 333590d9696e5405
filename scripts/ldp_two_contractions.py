#!/usr/bin/env python3
"""Large-deviation decay for the two-contraction random system on [0, 1].

Simulates the iterated function system {x/2, (x+1)/2} on an n-point net,
estimates deviation probabilities over a nucleus of observables, fits the
exponential decay and writes report.json, ldp.csv and ldp.svg into --out.
At its defaults this is the `ldp` scenario of scripts/scenarios/ldp.json;
--points changes the net, whose projected maps that file lists as tables.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from metriclab import interval_net
from metriclab.cli import Scenario, run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=16)
    ap.add_argument("--eps", type=float, default=0.15)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="out/ldp")
    args = ap.parse_args()

    coords = np.asarray(interval_net(args.points, 1.0).meta["coords"])
    proj = lambda y: int(np.argmin(np.abs(coords - y)))
    maps = [{"kind": "table", "map": [proj(c / 2 + shift) for c in coords]}
            for shift in (0.0, 0.5)]
    params = {"space": {"generator": "interval", "params": {"n": args.points, "length": 1.0}},
              "maps": maps, "eps": args.eps, "n_values": [4, 8, 16, 32, 64],
              "trials": args.trials, "nucleus_eps": 0.25, "nucleus_samples": 64}
    out = Path(args.out)
    rc = run(Scenario("ldp", params, seed=args.seed, out_dir=out,
                      formats=("json", "csv", "svg")))
    print(f"wrote {out}/report.json, {out}/ldp.csv and {out}/ldp.svg")
    return rc


if __name__ == "__main__":
    sys.exit(main())
