#!/usr/bin/env python3
"""Desk-scale bundling experiments.

Covers the complement bundle (sentiment + activity) and the substitute
bundle (two sentiment engines) of scenarios/bundle_*.cfg: contingency
sweeps, the wage sweep with Shapley splits, and the bundle-vs-separate
decisions.
"""
import argparse
import csv
import os
from dataclasses import replace
from pathlib import Path

from privmarket import (
    CharacteristicFunction,
    bundling_decision,
    load_scenario,
    optimize_bundle,
    shapley_allocation,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def data_cost(bundle, r1, r2):
    """Both services' wages for the unshared data at privacy levels r1 and r2."""
    return bundle.n * (bundle.s1.c * (1 - r1) + bundle.s2.c * (1 - r2))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--points", type=int, default=40, help="sweep resolution")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    complements = load_scenario(str(SCENARIOS / "bundle_complements.cfg"))
    substitutes = load_scenario(str(SCENARIOS / "bundle_substitutes.cfg"))

    rows = []
    for i in range(args.points):
        gamma = 0.5 * i / (args.points - 1)
        bundle = replace(complements.bundle, gamma=gamma)
        opt = optimize_bundle(bundle)
        cost = data_cost(bundle, opt.r1_star, opt.r2_star)
        rows.append([gamma, opt.r1_star, opt.r2_star, opt.p_b_star, opt.profit, cost])
    write_csv(
        os.path.join(args.out, "complement_contingency_sweep.csv"),
        ["gamma", "r1_star", "r2_star", "p_b_star", "profit", "data_cost"],
        rows,
    )

    rows = []
    for i in range(args.points):
        gamma = -0.4 + (0.35) * i / (args.points - 1)
        bundle = replace(substitutes.bundle, gamma=gamma)
        opt = optimize_bundle(bundle)
        cost = data_cost(bundle, opt.r1_star, opt.r2_star)
        rows.append([gamma, opt.r1_star, opt.r2_star, opt.p_b_star, opt.profit, cost])
    write_csv(
        os.path.join(args.out, "substitute_contingency_sweep.csv"),
        ["gamma", "r1_star", "r2_star", "p_b_star", "profit", "data_cost"],
        rows,
    )

    rows = []
    base = complements.bundle
    for i in range(args.points):
        c1 = 0.05 + (0.4 - 0.05) * i / (args.points - 1)
        decision = bundling_decision(replace(base, s1=replace(base.s1, c=c1)))
        game = CharacteristicFunction.from_two_player(
            decision.separate_profits[0], decision.separate_profits[1],
            decision.bundle_profit, names=complements.bundle_members,
        )
        alloc = shapley_allocation(game)
        rows.append([
            c1,
            decision.separate_profits[0], decision.separate_profits[1],
            decision.bundle_profit, *(alloc[name] for name in complements.bundle_members),
        ])
    write_csv(
        os.path.join(args.out, "wage_sweep_sharing.csv"),
        ["c1", "alone_1", "alone_2", "bundle_profit", "shapley_1", "shapley_2"],
        rows,
    )

    rows = []
    for label, loaded in (("complements", complements), ("substitutes", substitutes)):
        decision = bundling_decision(loaded.bundle)
        rows.append([
            label, decision.bundle_profit,
            decision.separate_profits[0], decision.separate_profits[1],
            decision.recommend_bundle,
        ])
    write_csv(
        os.path.join(args.out, "bundling_decisions.csv"),
        ["bundle", "bundle_profit", "alone_1", "alone_2", "recommend_bundle"],
        rows,
    )


if __name__ == "__main__":
    main()
