#!/usr/bin/env python3
"""Desk-scale standalone-sale experiments.

Writes plot-ready CSVs: the optimum itself, a reservation-wage sweep, a
customer-base sweep, and a fixed-privacy sweep, all for the sentiment
service of scenarios/s1.cfg.
"""
import argparse
import csv
import os
from dataclasses import replace
from pathlib import Path

from privmarket import (
    MarketSpec,
    SeparateScenario,
    gross_profit_separate,
    load_scenario,
    optimal_fee_fixed_privacy,
    optimize_separate,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--points", type=int, default=50, help="sweep resolution")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    base = load_scenario(str(SCENARIOS / "s1.cfg")).separate("S1")
    svc = base.service
    opt = optimize_separate(base)
    write_csv(
        os.path.join(args.out, "standalone_optimum.csv"),
        ["r_star", "p_star", "profit", "interior"],
        [[opt.r_star, opt.p_star, opt.profit, opt.interior]],
    )

    rows = []
    for i in range(args.points):
        c = 0.01 + (0.5 - 0.01) * i / (args.points - 1)
        opt = optimize_separate(replace(base, service=replace(svc, c=c)))
        cost = svc.n * c * (1 - opt.r_star)
        rows.append([c, opt.r_star, opt.p_star, opt.profit, cost])
    write_csv(
        os.path.join(args.out, "wage_sweep.csv"),
        ["c", "r_star", "p_star", "profit", "data_cost"],
        rows,
    )

    rows = []
    for i in range(args.points):
        m = int(100 + (5000 - 100) * i / (args.points - 1))
        opt = optimize_separate(SeparateScenario(service=svc, market=MarketSpec(m=m)))
        cost = svc.n * svc.c * (1 - opt.r_star)
        rows.append([m, opt.r_star, opt.p_star, opt.profit, cost])
    write_csv(
        os.path.join(args.out, "customer_sweep.csv"),
        ["M", "r_star", "p_star", "profit", "data_cost"],
        rows,
    )

    rows = []
    for i in range(args.points):
        r = i / (args.points - 1)
        fee = optimal_fee_fixed_privacy(base, r)
        profit = gross_profit_separate(base, r, fee)
        cost = svc.n * svc.c * (1 - r)
        rows.append([r, fee, profit, profit + cost, cost])
    write_csv(
        os.path.join(args.out, "fixed_privacy_sweep.csv"),
        ["r", "p_star", "profit", "revenue", "data_cost"],
        rows,
    )


if __name__ == "__main__":
    main()
