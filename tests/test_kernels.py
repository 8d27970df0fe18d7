"""Bits of the public formulas and optima, and their unchecked kernels.

Each formula has one private kernel that the solvers call on points they
built inside the feasible box; the public function validates its inputs
once and calls the same kernel.  The recorded float.hex values pin the
bits of both layers.
"""
import dataclasses
import hashlib
import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    COMPLEMENT,
    EXACT_GEOMETRY,
    PAPER_FORM,
    SUBSTITUTE,
    BundleSpec,
    DomainError,
    MarketSpec,
    QualityParams,
    SeparateScenario,
    ServiceSpec,
    bundle,
    demand,
    evaluate_quality,
    gross_profit_bundle,
    gross_profit_separate,
    load_scenario,
    optimize_bundle,
    prob_buy_complement,
    prob_buy_separate,
    prob_buy_substitute,
    quality,
    separate,
)
from privmarket import bundle_grid, bundle_objective

from conftest import random_bundle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _shipped(kind):
    return load_scenario(str(SCENARIOS / f"bundle_{kind}s.cfg")).bundle


def _with_wage(b, c):
    return dataclasses.replace(b, s1=dataclasses.replace(b.s1, c=c),
                               s2=dataclasses.replace(b.s2, c=c))


# float.hex of (r1, r2, p_b, profit), recorded before the solvers moved onto
# the kernels: the shipped bundles and variants with every wage 0 or 5.  The
# two shipped exact rows were re-recorded when the exact ascent started from
# the closed-form stationary point instead of a seed grid: each point moved
# by under 3e-8, inside the ascent's 1e-6 plateau, and no profit fell.  All
# six exact rows were re-recorded when the exact fee became closed form
# (bundle._exact_fee); the profits moved by at most 4.5e-16 relative.  The
# shipped paper substitute was re-recorded when the paper ascent began to
# update each privacy level on the fee-eliminated profit P(r1, r2): its point
# moved in the last digits and its profit rose by 2 ulps.  The shipped and c=5
# exact substitutes were re-recorded when the exact substitute rule began to
# take the linear form on interior geometry: each profit rose by 1 ulp, and the
# shipped point moved along the exact plateau.  The three exact complement rows
# were re-recorded when each exact complement privacy slice on interior
# geometry took its closed-form maximizer (bundle._exact_slice): the shipped
# point moved by under 6e-8 and kept its profit bits; c=0 and c=5 moved from
# the bracket search's midpoints 2^-36 inside the box onto its bounds, and
# their profits rose by 1.4e-13 and 2.7e-11 relative.  The exact substitute
# c=0 and c=5 rows were re-recorded when the bracket search began to return
# the best point of its last lattice instead of its midpoint: both levels moved
# from 2^-36 inside the box onto its bounds (0 and 1), and the profits rose by
# 3.1e-13 and 3.5e-11 relative.  The shipped exact substitute was re-recorded
# when each exact substitute slice whose first lattice's best bracket lies on
# interior geometry took its closed-form maximizer: the point moved by under
# 3e-8 and the profit rose by 2 ulps
PINNED_OPTIMA = {
    ("complement", "shipped", "paper"): (
        "0x1.3da687e314dacp-1", "0x1.0129b61871d33p-1", "0x1.7cef2bab05072p-1", "0x1.e370680eb2405p+8"),
    ("complement", "shipped", "exact"): (
        "0x1.3da687e314daep-1", "0x1.0129b61871d34p-1", "0x1.7cef2bab05072p-1", "0x1.e370680eb2405p+8"),
    ("complement", "c=0", "paper"): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8"),
    ("complement", "c=0", "exact"): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8"),
    ("complement", "c=5", "paper"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1", "0x1.d18bea752da50p+8"),
    ("complement", "c=5", "exact"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1", "0x1.d18bea752da50p+8"),
    ("substitute", "shipped", "paper"): (
        "0x1.687807341fedep-1", "0x1.547d7d73086b1p-1", "0x1.2aca7c1e76609p-1", "0x1.786e937631b69p+8"),
    ("substitute", "shipped", "exact"): (
        "0x1.64cbc105ee941p-1", "0x1.4f092680e0bc3p-1", "0x1.311ab51c49007p-1", "0x1.804bc232c3272p+8"),
    ("substitute", "c=0", "paper"): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.92ce58a3a3defp+8"),
    ("substitute", "c=0", "exact"): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1", "0x1.9af1c170cd4a2p+8"),
    ("substitute", "c=5", "paper"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1c8e42a0c8ac7p-1", "0x1.7283e6c15aa09p+8"),
    ("substitute", "c=5", "exact"): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.224e0cf20587fp-1", "0x1.7a004b85cc890p+8"),
}


@pytest.mark.parametrize("case", list(PINNED_OPTIMA), ids="-".join)
def test_optimum_matches_recorded_bits(case):
    kind, variant, mode = case
    b = _shipped(kind)
    if variant != "shipped":
        b = _with_wage(b, float(variant[2:]))
    opt = optimize_bundle(b, demand_mode=mode)
    got = (opt.r1_star, opt.r2_star, opt.p_b_star, opt.profit)
    assert all(type(v) is float for v in got)
    assert tuple(v.hex() for v in got) == PINNED_OPTIMA[case]


def _optimum_bits(opt):
    """float.hex of (r1, r2, p_b, profit), then of the grid's coords and value when verified."""
    values = [opt.r1_star, opt.r2_star, opt.p_b_star, opt.profit]
    if opt.grid is not None:
        values += [*opt.grid.coords, opt.grid.value]
    return tuple(float(v).hex() for v in values)


def _optima_digest(seed, mode, verified=lambda i: False):
    """sha256 over _optimum_bits of 200 random optima; solve i is verified at 40^3 if verified(i).

    Both kinds alternate; of each 4 consecutive pairs one has both wages 0
    and one has both wages 5, the others keep their drawn wages.
    """
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for i in range(200):
        b = random_bundle(rng, (COMPLEMENT, SUBSTITUTE)[i % 2])
        wage = (None, 0.0, None, 5.0)[i // 2 % 4]
        if wage is not None:
            b = _with_wage(b, wage)
        opt = optimize_bundle(b, demand_mode=mode, verify=verified(i), verify_points=40)
        for bits in _optimum_bits(opt):
            digest.update(bits.encode())
    return digest.hexdigest()


def _exact_optima_digest():
    return _optima_digest(130013, EXACT_GEOMETRY)


# re-recorded when the exact fee became closed form (bundle._exact_fee), which
# moves every exact fee by rounding at least; PINNED_OPTIMA's six exact rows
# alone pin few of these bits; re-recorded when the exact substitute rule began
# to take the linear form on interior geometry; re-recorded when the exact
# complement slices took their closed form on interior geometry: no complement
# profit fell by more than 2e-16 of its revenue plus data cost, and every
# substitute solve kept its bits; re-recorded when the exact solve's first start
# became the maximum of the fee-eliminated profit P at the exact factor
# (bundle._paper_ascent) in place of the clipped stationary point: 37 of the 200
# solves moved, none lower by more than 3.5e-15 of its revenue plus data cost;
# re-recorded when the bracket search (bundle._bracket_max) began to return the
# best point of its last lattice instead of its midpoint: 142 of the 200 solves
# moved (98 substitutes, 44 complements), none lower by more than 2.8e-15 of its
# revenue plus data cost, and no clamped set changed; re-recorded when the exact
# substitute slices took their closed form where the first lattice's best
# bracket lies on interior geometry (bundle._exact_slice): 19 of the 200 solves
# moved, all substitutes, none lower by more than 5.3e-16 of its revenue plus
# data cost, and no clamped set changed; re-recorded when every exact privacy
# slice took the best of its candidate levels (bundle._slice_levels) in place of
# the bracket search, and the sweeps' tolerance tightened from 1e-6 to 1e-9: 15
# of the 200 solves moved (8 complements, 7 substitutes), 9 profits rose (by up
# to 5.8e-13 of revenue plus data cost), 3 fell by at most 3.2e-17 of it, and no
# clamped set changed
EXACT_OPTIMA_DIGEST = "784ec56611da9f3434834f322d9e54c55e36354b1601507523a88a739be54328"


def test_exact_optima_match_recorded_digest():
    assert _exact_optima_digest() == EXACT_OPTIMA_DIGEST


# recorded before the solves built and checked their box once on floats and
# the paper demand kernels dropped their clamp at 1; every 4th solve is
# verified, shifted by one in each block of 8 so both kinds and every wage are;
# re-recorded when the paper ascent moved onto the fee-eliminated profit
PAPER_OPTIMA_DIGEST = "f9687ddddd4215bdd23327253fe2115e0a9904cdbc46ce7144b4121fd5f4a5eb"


def test_paper_optima_match_recorded_digest():
    digest = _optima_digest(140014, PAPER_FORM, verified=lambda i: (i + i // 8) % 4 == 3)
    assert digest == PAPER_OPTIMA_DIGEST


def _with_quality(b, **alphas):
    return dataclasses.replace(b, **{
        name: dataclasses.replace(svc, quality=dataclasses.replace(svc.quality, **alphas))
        for name, svc in (("s1", b.s1), ("s2", b.s2))})


# each variant of a shipped bundle sets one input (both services' where
# there are two) at its ceiling, at a tiny value, or at a wage of 0 or 5
EXTREMES = {
    "alpha1=1e100": lambda b: _with_quality(b, alpha1=1e100),
    "alpha3=1e100": lambda b: _with_quality(b, alpha3=1e100),
    "alpha2=5e-324": lambda b: _with_quality(b, alpha2=5e-324),
    "quality~1e-160": lambda b: _with_quality(b, alpha1=1e-160, alpha2=1e-170, alpha3=50.0),
    "c=1e100": lambda b: _with_wage(b, 1e100),
    "gamma=edge": lambda b: dataclasses.replace(
        b, gamma=1e100 if b.kind == COMPLEMENT else -0.5 + 2**-40),
    "m=1e100": lambda b: dataclasses.replace(b, market=MarketSpec(m=int(1e100))),
    "ceilings": lambda b: dataclasses.replace(
        _with_wage(_with_quality(b, alpha1=1e100), 1e100), market=MarketSpec(m=int(1e100)),
        gamma=1e100 if b.kind == COMPLEMENT else b.gamma),
    "c=0": lambda b: _with_wage(b, 0.0),
    "c=5": lambda b: _with_wage(b, 5.0),
}


def _extreme_outcome(variant, kind, mode, verify):
    """The DomainError message of a solve, or _optimum_bits with fallback and clamped variables."""
    b = EXTREMES[variant](_shipped(kind))
    try:
        with np.errstate(all="ignore"):
            opt = optimize_bundle(b, demand_mode=mode, verify=verify, verify_points=9)
    except DomainError as exc:
        return str(exc)
    return (*_optimum_bits(opt), opt.fallback, opt.clamped_variables)


# recorded before the solves built and checked their box once on floats.  The
# eight alpha3=1e100 rows raised "bad grid range [0.0, -1e-09]" there: for a
# curve that reaches zero quality within privacy_cap's 1e-9 margin of r = 0,
# privacy_cap returned -1e-9; they were re-recorded when it started to return 0.
# The unverified exact "ceilings" complement ended at a nan profit without an
# error: (1+gamma)^2*u1*u2 overflows inside the box while its corners stay
# finite.  Its row was re-recorded when optimize_bundle began to reject a nan
# profit.
# The exact rows were re-recorded when the exact ascent took its fee in closed
# form (bundle._exact_fee): each fee moved inside the old bracket search's
# plateau, or (c=1e100, where the wage swamps the profit) from a near-zero
# fee to the revenue-maximizing one, and no profit fell by more than 3.4e-16
# relative.  The exact quality~1e-160 substitute rows raised the NaN error at
# a box corner, from a 0/0 in the exact area where the box has no width; that
# area is 0 now, and the box check rejects the underflowing u1*u2 itself.
# The two exact "ceilings" complement rows were re-recorded when the exact
# ascent's privacy search began to raise on a NaN slice value instead of
# following it: the unverified row had raised the final profit's NaN error,
# and the verified one the NaN error of its verify grid, which runs after
# the ascent.
# The paper substitute rows alpha1=1e100 and ceilings raised "privacy update
# out of floating-point range" until the paper ascent updated each privacy
# level on the fee-eliminated profit P(r1, r2), whose update squares nothing;
# each now ends above its grid.  The paper gamma=edge substitute rows kept
# their profit bits there, and their point moved in the last digits.
# The exact substitute rows alpha1=1e100, alpha3=1e100, gamma=edge, ceilings
# and c=5 were re-recorded when the exact substitute rule began to take the
# linear form on interior geometry: each profit and grid value moved by at
# most 1 ulp (the alpha3=1e100 profit fell by 1), and the gamma=edge point moved along the exact
# plateau.  The quality~1e-160 rows now raise the NaN error at a box corner
# like the other kinds and modes: a fee of 0 is interior, and the linear
# form's (1+gamma)^2*u1*u2 underflows there.
# The exact complement rows alpha1=1e100, alpha2=5e-324, c=1e100, gamma=edge,
# m=1e100, c=0 and c=5 were re-recorded when each exact complement privacy
# slice on interior geometry took its closed-form maximizer: no profit fell and
# no fallback flag changed.  alpha1=1e100 moved from the clamped (r1, r2) next
# to 0 to an interior point with the same profit bits.  c=1e100 rose from
# -0x1.c93...p+303 to +0x1.d18...p+8: both levels now reach their caps of 1
# exactly, where the 1e100 wages cost nothing.  The others moved from 2^-36
# inside the box onto its bounds.  The exact ceilings complement's fee cubed
# overflows, so its slices still take the bracket search and raise its NaN error.
# The exact substitute rows alpha1=1e100, alpha2=5e-324, c=1e100, m=1e100,
# ceilings, c=0 and c=5 were re-recorded when the bracket search began to return
# the best point of its last lattice instead of its midpoint: each pair of
# levels moved onto its bounds, from 2^-36 to 0 or from 1 - 2^-36 to 1, no
# profit fell, and no clamped set changed.  c=1e100 rose from -2.91e91 to
# +378.001: at 1 exactly the 1e100 wages cost nothing.
# The exact gamma=edge substitute rows were re-recorded when each exact
# substitute slice whose first lattice's best bracket lies on interior geometry
# took its closed-form maximizer: the point moved along the exact plateau by
# under 3e-8, the profit and grid bits stayed.  The alpha1=1e100 slices are
# flat: the closed form earns no more than the lattice, so the search's 0 stands.
# The exact alpha1=1e100 complement rows were re-recorded when every exact slice
# took the best of its candidate levels, the least on a tie: their slices are
# flat to float resolution (the wages are below an ulp of the revenue), so the
# point moved from the interior (0.633, 0.494) to (0, 0), clamped, with the
# same profit and grid bits.
_NAN = "objective produced NaN on the grid; domain is not valid"
_SLICE_NAN = ("bundle profit is NaN at privacy level 0.0; the scenario's magnitudes overflow "
              "together")
_UNDERFLOW = "service qualities too small: (1+gamma)^2*u1*u2 or u1*u2 underflows to 0"
EXTREME_OUTCOMES = {
    ("alpha1=1e100", "complement", "paper", False): (
        "0x1.4434299522d90p-1", "0x1.f98c31f343bd9p-2", "0x1.06cd47b8db757p+332",
        "0x1.5630a00e086b8p+341", False, ()),
    ("alpha1=1e100", "complement", "paper", True): (
        "0x1.4434299522d90p-1", "0x1.f98c31f343bd9p-2", "0x1.06cd47b8db757p+332",
        "0x1.5630a00e086b8p+341", "0x0.0p+0", "0x0.0p+0", "0x1.1c7dcaca5649ap+332",
        "0x1.5298f74bb192cp+341", False, ()),
    ("alpha1=1e100", "complement", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.06cd47b8db757p+332",
        "0x1.5630a00e086b8p+341", True, ("r1", "r2")),
    ("alpha1=1e100", "complement", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.06cd47b8db757p+332",
        "0x1.5630a00e086b8p+341", "0x0.0p+0", "0x0.0p+0", "0x1.e2cc4179bdc28p+331",
        "0x1.52e0be3523617p+341", True, ("r1", "r2")),
    ("alpha1=1e100", "substitute", "paper", False): (
        "0x1.6a87c8f7f3292p-1", "0x1.515fc1ef47afbp-1", "0x1.a9cd6fd7ce7b8p+331",
        "0x1.153714d07fc31p+341", True, ()),
    ("alpha1=1e100", "substitute", "paper", True): (
        "0x1.6a87c8f7f3292p-1", "0x1.515fc1ef47afbp-1", "0x1.a9cd6fd7ce7b8p+331",
        "0x1.153714d07fc31p+341", "0x0.0p+0", "0x0.0p+0", "0x1.ccf1d8cc59799p+331",
        "0x1.124e0bdbdb5f0p+341", True, ()),
    ("alpha1=1e100", "substitute", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.b267ca16924a8p+331",
        "0x1.1ad0e7915c934p+341", True, ("r1", "r2")),
    ("alpha1=1e100", "substitute", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.b267ca16924a8p+331",
        "0x1.1ad0e7915c934p+341", "0x0.0p+0", "0x0.0p+0", "0x1.8b04359226e4fp+331",
        "0x1.176f02455b339p+341", True, ("r1", "r2")),
    ("alpha3=1e100", "complement", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.d9f45f32c9ea8p+8", True, ("r1", "r2")),
    ("alpha3=1e100", "complement", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.d9f45f32c9ea8p+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.a2fadf2d2e854p-1", "0x1.d4a9f57f164e3p+8", True, ("r1", "r2")),
    ("alpha3=1e100", "complement", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.d9f45f32c9ea8p+8", True, ("r1", "r2")),
    ("alpha3=1e100", "complement", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.d9f45f32c9ea8p+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.63a92a3055326p-1", "0x1.d51eeea9e7c51p+8", True, ("r1", "r2")),
    ("alpha3=1e100", "substitute", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.6ace58a3a3defp+8", True, ("r1", "r2")),
    ("alpha3=1e100", "substitute", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.6ace58a3a3defp+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.4ee2fbaf9aa08p-1", "0x1.6693c6ed9058dp+8", True, ("r1", "r2")),
    ("alpha3=1e100", "substitute", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1", "0x1.72f1c170cd4a2p+8", True, ("r1", "r2")),
    ("alpha3=1e100", "substitute", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1", "0x1.72f1c170cd4a2p+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.1f05532617c1cp-1", "0x1.6e0a621ce1186p+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "complement", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8434c9edf3421p-1",
        "0x1.f97a11987f68ap+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "complement", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8434c9edf3421p-1",
        "0x1.f97a11987f68ap+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.a43edc1379f52p-1", "0x1.f42b908e6e36fp+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "complement", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8434c9edf3421p-1",
        "0x1.f97a11987f68ap+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "complement", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8434c9edf3421p-1",
        "0x1.f97a11987f68ap+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.64b780346dc5ep-1", "0x1.f49f77633264ap+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "substitute", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.387e1202a52c5p-1",
        "0x1.96e4277371bc5p+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "substitute", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.387e1202a52c5p-1",
        "0x1.96e4277371bc5p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.52487393cf340p-1", "0x1.929e9b0efbac4p+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "substitute", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.3ece5b341a7f1p-1",
        "0x1.9f1cb16bd7d57p+8", True, ("r1", "r2")),
    ("alpha2=5e-324", "substitute", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.3ece5b341a7f1p-1",
        "0x1.9f1cb16bd7d57p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.21f559b3d07c8p-1", "0x1.9a2ae53af6688p+8", True, ("r1", "r2")),
    ("quality~1e-160", "complement", "paper", False): _NAN,
    ("quality~1e-160", "complement", "paper", True): _NAN,
    ("quality~1e-160", "complement", "exact", False): _NAN,
    ("quality~1e-160", "complement", "exact", True): _NAN,
    ("quality~1e-160", "substitute", "paper", False): _NAN,
    ("quality~1e-160", "substitute", "paper", True): _NAN,
    ("quality~1e-160", "substitute", "exact", False): _NAN,
    ("quality~1e-160", "substitute", "exact", True): _NAN,
    ("c=1e100", "complement", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", True, ("r1", "r2")),
    ("c=1e100", "complement", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.4f2f18f0f2043p-1", "0x1.cedf9112385cep+8", True, ("r1", "r2")),
    ("c=1e100", "complement", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", True, ("r1", "r2")),
    ("c=1e100", "complement", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.63a92a3055326p-1", "0x1.d186fcc3e68ffp+8", True, ("r1", "r2")),
    ("c=1e100", "substitute", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1c8e42a0c8ac7p-1",
        "0x1.7283e6c15aa09p+8", True, ("r1", "r2")),
    ("c=1e100", "substitute", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1c8e42a0c8ac7p-1",
        "0x1.7283e6c15aa09p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0be8c95948806p-1", "0x1.70a67e32ff050p+8", True, ("r1", "r2")),
    ("c=1e100", "substitute", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.224e0cf20587fp-1",
        "0x1.7a004b85cc890p+8", True, ("r1", "r2")),
    ("c=1e100", "substitute", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.224e0cf20587fp-1",
        "0x1.7a004b85cc890p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.1f05532617c1cp-1", "0x1.79edca1555fd5p+8", True, ("r1", "r2")),
    ("gamma=edge", "complement", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.92298d45e6227p+331", "0x1.05d30d4ed7291p+341", True,
        ("r1", "r2")),
    ("gamma=edge", "complement", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.92298d45e6227p+331", "0x1.05d30d4ed7291p+341", "0x0.0p+0",
        "0x0.0p+0", "0x1.b35a7d381e9d1p+331", "0x1.031361745d77cp+341", True, ("r1", "r2")),
    ("gamma=edge", "complement", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.92298d45e6227p+331", "0x1.05d30d4ed7291p+341", True,
        ("r1", "r2")),
    ("gamma=edge", "complement", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.92298d45e6227p+331", "0x1.05d30d4ed7291p+341", "0x0.0p+0",
        "0x0.0p+0", "0x1.718f50d6abc89p+331", "0x1.03502728910c5p+341", True, ("r1", "r2")),
    ("gamma=edge", "substitute", "paper", False): (
        "0x1.f6f8172323e43p-1", "0x1.0000000000000p+0", "0x1.05476ff6265c0p-2",
        "0x1.53806641eb6afp+7", True, ("r2",)),
    ("gamma=edge", "substitute", "paper", True): (
        "0x1.f6f8172323e43p-1", "0x1.0000000000000p+0", "0x1.05476ff6265c0p-2",
        "0x1.53806641eb6afp+7", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.eaf107dd7ab53p-3", "0x1.51c6390d3df9ep+7", True, ("r2",)),
    ("gamma=edge", "substitute", "exact", False): (
        "0x1.92fe69090020ap-1", "0x1.937d296fd2d3ap-1", "0x1.d486285a6b6dep-2",
        "0x1.28882b53962e7p+8", True, ()),
    ("gamma=edge", "substitute", "exact", True): (
        "0x1.92fe69090020ap-1", "0x1.937d296fd2d3ap-1", "0x1.d486285a6b6dep-2",
        "0x1.28882b53962e7p+8", "0x1.c000000000000p-1", "0x1.c000000000000p-1",
        "0x1.a9374bc6ab421p-2", "0x1.25481a679fbe7p+8", True, ()),
    ("m=1e100", "complement", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.26eb457786a1dp+331", True,
        ("r1", "r2")),
    ("m=1e100", "complement", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.26eb457786a1dp+331", "0x0.0p+0",
        "0x0.0p+0", "0x1.a2fadf2d2e854p-1", "0x1.23d2a7ef9e1efp+331", True, ("r1", "r2")),
    ("m=1e100", "complement", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.26eb457786a1dp+331", True,
        ("r1", "r2")),
    ("m=1e100", "complement", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.26eb457786a1dp+331", "0x0.0p+0",
        "0x0.0p+0", "0x1.63a92a3055326p-1", "0x1.24171c2239b49p+331", True, ("r1", "r2")),
    ("m=1e100", "substitute", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.d773ae4b84d81p+330", True,
        ("r1", "r2")),
    ("m=1e100", "substitute", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.d773ae4b84d81p+330", "0x0.0p+0",
        "0x0.0p+0", "0x1.4ee2fbaf9aa08p-1", "0x1.d2809f070f22dp+330", True, ("r1", "r2")),
    ("m=1e100", "substitute", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1",
        "0x1.e0fa249842a82p+330", True, ("r1", "r2")),
    ("m=1e100", "substitute", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1",
        "0x1.e0fa249842a82p+330", "0x0.0p+0", "0x0.0p+0", "0x1.1f05532617c1cp-1",
        "0x1.db3cd4c6c5bd2p+330", True, ("r1", "r2")),
    ("ceilings", "complement", "paper", False): _NAN,
    ("ceilings", "complement", "paper", True): _NAN,
    ("ceilings", "complement", "exact", False): _SLICE_NAN,
    ("ceilings", "complement", "exact", True): _SLICE_NAN,
    ("ceilings", "substitute", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.a9cd6fd7ce7b8p+331",
        "0x1.44753a0452da8p+663", True, ("r1", "r2")),
    ("ceilings", "substitute", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.a9cd6fd7ce7b8p+331",
        "0x1.44753a0452da8p+663", "0x0.0p+0", "0x0.0p+0", "0x1.ccf1d8cc59799p+331",
        "0x1.410d3934da1e7p+663", True, ("r1", "r2")),
    ("ceilings", "substitute", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.b267ca16924a8p+331",
        "0x1.4b036696a7c1ap+663", True, ("r1", "r2")),
    ("ceilings", "substitute", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.b267ca16924a8p+331",
        "0x1.4b036696a7c1ap+663", "0x0.0p+0", "0x0.0p+0", "0x1.8b04359226e4fp+331",
        "0x1.470df09cae7d3p+663", True, ("r1", "r2")),
    ("c=0", "complement", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8", True, ("r1", "r2")),
    ("c=0", "complement", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.a2fadf2d2e854p-1", "0x1.f2a9f57f164e3p+8", True, ("r1", "r2")),
    ("c=0", "complement", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8", True, ("r1", "r2")),
    ("c=0", "complement", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.830980688ab00p-1", "0x1.f7f45f32c9ea8p+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.63a92a3055326p-1", "0x1.f31eeea9e7c51p+8", True, ("r1", "r2")),
    ("c=0", "substitute", "paper", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.92ce58a3a3defp+8", True, ("r1", "r2")),
    ("c=0", "substitute", "paper", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.355ae3d1a4c3cp-1", "0x1.92ce58a3a3defp+8", "0x0.0p+0",
        "0x0.0p+0", "0x1.4ee2fbaf9aa08p-1", "0x1.8e93c6ed9058dp+8", True, ("r1", "r2")),
    ("c=0", "substitute", "exact", False): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1",
        "0x1.9af1c170cd4a2p+8", True, ("r1", "r2")),
    ("c=0", "substitute", "exact", True): (
        "0x0.0p+0", "0x0.0p+0", "0x1.3b9af2c5394f7p-1",
        "0x1.9af1c170cd4a2p+8", "0x0.0p+0", "0x0.0p+0", "0x1.1f05532617c1cp-1",
        "0x1.960a621ce1186p+8", True, ("r1", "r2")),
    ("c=5", "complement", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", True, ("r1", "r2")),
    ("c=5", "complement", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.4f2f18f0f2043p-1", "0x1.cedf9112385cep+8", True, ("r1", "r2")),
    ("c=5", "complement", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", True, ("r1", "r2")),
    ("c=5", "complement", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.658a2ce541c65p-1",
        "0x1.d18bea752da50p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.63a92a3055326p-1", "0x1.d186fcc3e68ffp+8", True, ("r1", "r2")),
    ("c=5", "substitute", "paper", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1c8e42a0c8ac7p-1",
        "0x1.7283e6c15aa09p+8", True, ("r1", "r2")),
    ("c=5", "substitute", "paper", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1c8e42a0c8ac7p-1",
        "0x1.7283e6c15aa09p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0be8c95948806p-1", "0x1.70a67e32ff050p+8", True, ("r1", "r2")),
    ("c=5", "substitute", "exact", False): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.224e0cf20587fp-1",
        "0x1.7a004b85cc890p+8", True, ("r1", "r2")),
    ("c=5", "substitute", "exact", True): (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.224e0cf20587fp-1",
        "0x1.7a004b85cc890p+8", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.1f05532617c1cp-1", "0x1.79edca1555fd5p+8", True, ("r1", "r2")),
}


@pytest.mark.parametrize("case", list(EXTREME_OUTCOMES), ids=lambda case: "-".join(map(str, case)))
def test_extreme_solve_matches_recorded_outcome(case):
    assert _extreme_outcome(*case) == EXTREME_OUTCOMES[case]


def test_exact_slice_where_k_leaves_float_range_is_not_below_a_dense_lattice():
    # K = n*c*k*u_other/(m*sigma*p^3*alpha3) in bundle._slice_levels: the fee
    # cubed overflowing (a float p**3 raises OverflowError there), the wage's
    # term underflowing to K = 0, K overflowing, the fee cubed underflowing to
    # 0, and inf/inf, each on the shipped bundles' first slice at r2 = 0.5; a
    # substitute slice also at a wage of 0 and off interior geometry.  Where K
    # leaves float range no root is taken and the answer is a bound; each
    # earns no less than a 100,001-point lattice of the slice, with no warning
    for kind in (COMPLEMENT, SUBSTITUTE):
        b = _shipped(kind)
        cap = separate.privacy_cap(b.s1.quality)
        g = b.gamma
        u2 = float(evaluate_quality(0.5, b.s2.quality))
        cases = [(g, 0.2, 1e103, u2), (g, 5e-324, 0.7, u2), (g, 1e100, 1e-75, u2),
                 (g, 0.2, 1e-110, u2)]
        cases += ([(1e100, 1e100, 1e103, 1e99)] if kind == COMPLEMENT else
                  [(g, 1e100, 1e103, 1e250), (g, 0.0, 0.7, u2), (g, 0.2, 0.7, 0.01)])
        for j, (gamma, wage, fee, u_other) in enumerate(cases):
            case = dataclasses.replace(b, gamma=gamma, s1=dataclasses.replace(b.s1, c=wage))

            def profit(t):
                return bundle._profit_at(case, t, 0.5, quality._quality(t, case.s1.quality),
                                         u_other, fee, EXACT_GEOMETRY)

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = bundle._exact_slice(case, case.s1, cap, fee, u_other, profit)
                best = profit(np.linspace(0.0, cap, 100_001)).max()
                ours = profit(np.array([r]))[0]
            assert ours >= best - 1e-15 * (abs(best) + case.n * wage), (kind, j)
            assert j >= 5 or r in (0.0, cap), (kind, j)
    # the ceilings complement's fee cubed overflows inside the solve
    errors = {case: text for case, text in EXTREME_OUTCOMES.items()
              if case[1:3] == (COMPLEMENT, EXACT_GEOMETRY) and isinstance(text, str)}
    assert len(errors) == 4
    for case, text in errors.items():
        assert _extreme_outcome(*case) == text


def test_recorded_verified_solves_agree_with_the_unverified_ones():
    # a verify grid only certifies: where both solves of a case succeed, the
    # verified row is the unverified one with the grid's coords and value added
    pairs = 0
    for (variant, kind, mode, verify), plain in EXTREME_OUTCOMES.items():
        verified = EXTREME_OUTCOMES.get((variant, kind, mode, True))
        if verify or not (isinstance(plain, tuple) and isinstance(verified, tuple)):
            continue
        assert (*verified[:4], *verified[-2:]) == plain
        pairs += 1
    assert pairs == 34


def _function_cases():
    sb1, sb2 = _shipped(COMPLEMENT), _shipped(SUBSTITUTE)
    s1 = load_scenario(str(SCENARIOS / "s1.cfg"))
    sc = s1.separate(s1.single_service_name())
    a = np.array
    cases = {
        "evaluate_quality": (lambda *x: evaluate_quality(*x, sb1.s2.quality),
                             (0.37,), (a([0.0, 0.37, 1.0]),)),
        "prob_buy_separate": (prob_buy_separate, (0.31, 0.77),
                              (a([0.0, 0.31, 0.9]), a([0.77, 0.5, 0.6]))),
        "gross_profit_separate": (lambda *x: gross_profit_separate(sc, *x), (0.37, 0.31),
                                  (a([0.0, 0.37, 0.9]), a([0.1, 0.31, 0.5]))),
    }
    for mode in (PAPER_FORM, EXACT_GEOMETRY):
        for name, rule, fee, top, gamma in (("complement", prob_buy_complement, 0.93, 1.7, 0.1),
                                            ("substitute", prob_buy_substitute, 0.61, 0.95, -0.1)):
            cases[f"prob_buy_{name}-{mode}"] = (
                lambda *x, rule=rule, gamma=gamma, mode=mode: rule(*x, gamma, mode),
                (fee, 0.71, 0.83), (a([0.2, fee, top]), 0.71, a([0.83, 0.5, 0.9])))
        for name, b, p in (("complement", sb1, 0.93), ("substitute", sb2, 0.61)):
            cases[f"gross_profit_bundle-{name}-{mode}"] = (
                lambda *x, b=b, mode=mode: gross_profit_bundle(b, *x, mode),
                (0.41, 0.53, p), (a([0.0, 0.41, 0.9]), 0.53, a([0.2, p, 1.3])))
    return cases


# float.hex of each function at one scalar point and at a 3-element array
# point (mixed with scalars that broadcast), recorded before the refactor; the
# exact substitute rows were re-recorded when that rule began to take the
# linear form on interior geometry (each changed bit pattern moved by 1 ulp)
PINNED_VALUES = {
    "evaluate_quality": ("0x1.b97b68357a8bbp-1", (
        "0x1.bb645a1cac083p-1", "0x1.b97b68357a8bbp-1", "0x1.99c2b69571268p-1")),
    "prob_buy_separate": ("0x1.31dec0d4c77b0p-1", (
        "0x1.0000000000000p+0", "0x1.851eb851eb852p-2", "0x0.0p+0")),
    "prob_buy_complement-paper": ("0x1.92f7c87a7453cp-2", (
        "0x1.f1a3a3ab930b1p-1", "0x0.0p+0", "0x0.0p+0")),
    "prob_buy_complement-exact": ("0x1.a31dd9c6726f0p-2", (
        "0x1.f1a3a3ab930b1p-1", "0x1.7f54f85e33a94p-3", "0x1.ab47227662a00p-9")),
    "prob_buy_substitute-paper": ("0x1.347254ccff8b7p-1", (
        "0x1.ea1e50cdddf6ep-1", "0x1.5c33e656ac91ap-2", "0x1.c59165c61a260p-4")),
    "prob_buy_substitute-exact": ("0x1.3c6dd90131c24p-1", (
        "0x1.eaf9fd5257c51p-1", "0x1.9da9554146f04p-2", "0x1.ec9fa11186910p-3")),
    "gross_profit_separate": ("0x1.65b69bfc9af91p+7", (
        "0x1.0f19a99f9bda7p+6", "0x1.65b69bfc9af91p+7", "0x1.5c148cfd282a8p+7")),
    "gross_profit_bundle-complement-paper": ("0x1.b2b29e8c588fap+8", (
        "0x1.552d44b70c80cp+7", "0x1.b2b29e8c588fap+8", "-0x1.accccccccccccp+2")),
    "gross_profit_bundle-substitute-paper": ("0x1.75c0c67d9c034p+8", (
        "0x1.4633b5e90785cp+7", "0x1.75c0c67d9c034p+8", "-0x1.6ccccccccccccp+3")),
    "gross_profit_bundle-complement-exact": ("0x1.b39275afc5279p+8", (
        "0x1.552d44b70c80cp+7", "0x1.b39275afc5279p+8", "0x1.7c1cca8873ab3p+7")),
    "gross_profit_bundle-substitute-exact": ("0x1.7e2fada3da293p+8", (
        "0x1.46ca475f6396ap+7", "0x1.7e2fada3da293p+8", "0x1.660f13a3dced0p+3")),
}


@pytest.mark.parametrize("name", list(PINNED_VALUES))
def test_function_matches_recorded_bits(name):
    fn, scalar_args, array_args = _function_cases()[name]
    scalar = fn(*scalar_args)
    array = fn(*array_args)
    assert type(scalar) is float
    assert isinstance(array, np.ndarray) and array.shape == (3,)
    assert (scalar.hex(), tuple(float(v).hex() for v in array)) == PINNED_VALUES[name]


S1 = QualityParams(0.822, 0.004, 2.813)
S2 = QualityParams(0.856, 0.013, 1.861)
S3 = QualityParams(0.867, 0.001, 4.2)
MARKET = MarketSpec(m=1000)
SCENARIO = SeparateScenario(service=ServiceSpec(S1, n=100, c=0.2), market=MARKET)
BUNDLES = {
    COMPLEMENT: bundle.BundleSpec(ServiceSpec(S1, 100, 0.2), ServiceSpec(S3, 100, 0.1), MARKET,
                                  gamma=0.1, kind=COMPLEMENT),
    SUBSTITUTE: bundle.BundleSpec(ServiceSpec(S1, 100, 0.2), ServiceSpec(S2, 100, 0.2), MARKET,
                                  gamma=-0.1, kind=SUBSTITUTE),
}
_KERNEL_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def _values(lo, hi):
    """A float in [lo, hi], or a 3-element array of them."""
    floats = st.floats(lo, hi)
    return st.one_of(floats, st.lists(floats, min_size=3, max_size=3).map(np.array))


def _bundle_kernel(kind):
    """demand._buy_bundle of one kind, in the public rules' argument order."""
    return lambda fee, u1, u2, gamma, mode: demand._buy_bundle(fee, u1, u2, gamma, kind, mode)


def _same_bits(public, kernel):
    assert type(public) is float or isinstance(public, np.ndarray)
    assert np.asarray(public, dtype=float).tobytes() == np.asarray(kernel, dtype=float).tobytes()


@_KERNEL_SETTINGS
@given(st.sampled_from([S1, S2, S3]), _values(0.0, 1.0))
def test_evaluate_quality_is_its_kernel(params, r):
    _same_bits(evaluate_quality(r, params), quality._quality(r, params))


@_KERNEL_SETTINGS
@given(_values(0.0, 3.0), _values(0.05, 1.0))
def test_prob_buy_separate_is_its_kernel(fee, u):
    _same_bits(prob_buy_separate(fee, u), demand._buy_separate(fee, u))


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
@pytest.mark.parametrize("rule, kernel, gammas", [
    (prob_buy_complement, _bundle_kernel(COMPLEMENT), _values(0.0, 2.0)),
    (prob_buy_substitute, _bundle_kernel(SUBSTITUTE), _values(-0.49, -1e-6)),
], ids=[COMPLEMENT, SUBSTITUTE])
@_KERNEL_SETTINGS
@given(data=st.data())
def test_prob_buy_bundle_is_its_kernel(rule, kernel, gammas, mode, data):
    fee, u1, u2 = data.draw(_values(0.0, 3.0)), data.draw(_values(0.05, 1.0)), data.draw(_values(0.05, 1.0))
    gamma = data.draw(gammas)
    _same_bits(rule(fee, u1, u2, gamma, mode), kernel(fee, u1, u2, gamma, mode))


@_KERNEL_SETTINGS
@given(_values(0.0, 1.0), _values(0.0, 1.0))
def test_gross_profit_separate_is_its_kernel(r, p):
    _same_bits(gross_profit_separate(SCENARIO, r, p), separate._profit(SCENARIO, r, p))


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
@_KERNEL_SETTINGS
@given(_values(0.0, 1.0), _values(0.0, 1.0), _values(0.0, 2.0))
def test_gross_profit_bundle_is_its_kernel(kind, mode, r1, r2, p):
    b = BUNDLES[kind]
    _same_bits(gross_profit_bundle(b, r1, r2, p, mode), bundle._profit(b, r1, r2, p, mode))


def _one_expression_profits(kind, mode):
    """The profit kernels written as single expressions, as they were before they
    finished their results in place: (bundle profit, standalone profit)."""
    b = BUNDLES[kind]
    buy = _bundle_kernel(kind)
    svc = SCENARIO.service

    def bundle_profit(r1, r2, p):
        u1, u2 = quality._quality(r1, b.s1.quality), quality._quality(r2, b.s2.quality)
        return (b.market.m * p * buy(p, u1, u2, b.gamma, mode)
                - b.n * b.s1.c * (1.0 - r1) - b.n * b.s2.c * (1.0 - r2))

    def separate_profit(r, p):
        u = quality._quality(r, svc.quality)
        return SCENARIO.market.m * p * np.maximum(1.0 - p / u, 0.0) - svc.n * svc.c * (1.0 - r)

    return bundle_profit, separate_profit


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
@_KERNEL_SETTINGS
@given(_values(0.0, 1.0), _values(0.0, 1.0), _values(0.0, 2.0))
def test_in_place_kernels_keep_type_and_bits(kind, mode, r1, r2, p):
    # fees up to 2 put points off the exact complement's interior triangle too
    b = BUNDLES[kind]
    bundle_profit, separate_profit = _one_expression_profits(kind, mode)
    u1, u2 = quality._quality(r1, b.s1.quality), quality._quality(r2, b.s2.quality)
    factor = b.demand_factor
    cases = [
        ((r1, r2, p), bundle._profit(b, r1, r2, p, mode), bundle_profit(r1, r2, p)),
        ((r1, p), separate._profit(SCENARIO, r1, p), separate_profit(r1, p)),
        ((r1, p), demand._buy_separate(p, u1), np.maximum(1.0 - p / u1, 0.0)),
        ((r1, r2, p), demand._linear_form(p, u1, u2, b.gamma, factor), np.maximum(
            1.0 - factor * (p * p) / ((1.0 + b.gamma) * (1.0 + b.gamma) * u1 * u2), 0.0)),
    ]
    for inputs, kernel, reference in cases:
        # a Python float (np.float64 is one) for numbers, never a 0-d array
        if all(isinstance(x, float) for x in inputs):
            assert isinstance(kernel, float)
        else:
            assert isinstance(kernel, np.ndarray)
        assert np.asarray(kernel).tobytes() == np.asarray(reference).tobytes()


def _two_sided(x):
    """1 - x clamped to [0, 1] at both ends, as the paper demand kernels once did."""
    return np.minimum(np.maximum(1.0 - x, 0.0), 1.0)


def _clamp_values(floats):
    """A float of floats, -0.0 included, or a 3-element array of them."""
    floats = st.one_of(st.just(-0.0), floats)
    return st.one_of(floats, st.lists(floats, min_size=3, max_size=3).map(np.array))


_FEES = _clamp_values(st.floats(0.0, 1e100))
_QUALITIES = st.one_of(st.floats(5e-324, 1e100), st.lists(st.floats(5e-324, 1e100), min_size=3,
                                                          max_size=3).map(np.array))
_CLAMP_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def _clamp_outcome(compute):
    """The dtype, shape and bytes of compute(), or the type of its arithmetic error.

    On Python floats an underflowed divisor raises ZeroDivisionError, in the
    kernel as in the two-sided form.
    """
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(compute())
    except ArithmeticError as exc:
        return type(exc)
    return out.dtype, out.shape, out.tobytes()


@_CLAMP_SETTINGS
@given(_FEES, _QUALITIES)
def test_separate_demand_clamps_like_both_sides(fee, u):
    assert (_clamp_outcome(lambda: demand._buy_separate(fee, u))
            == _clamp_outcome(lambda: _two_sided(fee / u)))


@pytest.mark.parametrize("kind, gammas", [
    (COMPLEMENT, st.floats(0.0, 1e100)),
    (SUBSTITUTE, st.floats(-0.5, 0.0, exclude_min=True, exclude_max=True)),
])
@_CLAMP_SETTINGS
@given(data=st.data())
def test_linear_form_clamps_like_both_sides(kind, gammas, data):
    fee, u1, u2 = data.draw(_FEES), data.draw(_QUALITIES), data.draw(_QUALITIES)
    gamma = data.draw(gammas)
    factor = 0.5 if kind == COMPLEMENT else 0.5 + gamma * gamma
    assert (_clamp_outcome(lambda: demand._linear_form(fee, u1, u2, gamma, factor))
            == _clamp_outcome(lambda: _two_sided(
                factor * (fee * fee) / ((1.0 + gamma) * (1.0 + gamma) * u1 * u2))))


_EXACT_KERNELS = {kind: _bundle_kernel(kind) for kind in (COMPLEMENT, SUBSTITUTE)}
_EXACT_RULES = {COMPLEMENT: prob_buy_complement, SUBSTITUTE: prob_buy_substitute}


def _interior_edge(kind, u1, u2, gamma):
    """The largest fee on interior geometry: the non-buy region is the triangle
    below the bundle line (complements) or the corner box [0, fee/u1] x
    [0, fee/u2] (substitutes), inside the unit square."""
    return (1.0 + gamma if kind == COMPLEMENT else 1.0) * np.minimum(u1, u2)


def _exact_inputs(kind, rng, shape):
    """Random (u1, u2, gamma) of a kind, the exact rule's interior factor and its interior edge."""
    u1, u2 = rng.uniform(0.05, 1.0, (2, *shape))
    if kind == COMPLEMENT:
        gamma, factor = rng.uniform(0.0, 2.0, shape), 0.5
    else:
        gamma = rng.uniform(-0.49, -1e-6, shape)
        factor = 0.5 - gamma * gamma
    return u1, u2, gamma, factor, _interior_edge(kind, u1, u2, gamma)


@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_exact_rule_is_the_linear_form_on_interior_geometry(kind):
    rng = np.random.default_rng(2021)
    u1, u2, gamma, factor, edge = _exact_inputs(kind, rng, (2000,))
    fee = edge * rng.uniform(0.0, 1.0, 2000)
    fee[:2] = 0.0, edge[1]  # both ends of the interior
    linear = demand._linear_form(fee, u1, u2, gamma, factor)
    for exact in (_EXACT_KERNELS[kind](fee, u1, u2, gamma, EXACT_GEOMETRY),
                  _EXACT_RULES[kind](fee, u1, u2, gamma, EXACT_GEOMETRY)):
        assert exact.tobytes() == linear.tobytes()
    for i in range(0, 2000, 50):  # numbers take the same closed form
        args = (float(fee[i]), float(u1[i]), float(u2[i]), float(gamma[i]))
        assert _EXACT_RULES[kind](*args, EXACT_GEOMETRY).hex() == float(linear[i]).hex()


@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_exact_rule_gives_each_point_of_a_mixed_block_its_own_bits(kind):
    # a grid block (qualities on the first two axes, fees on the third) and a
    # privacy slice (a fixed fee), each with points on both sides of the edge
    rng = np.random.default_rng(2022)
    kernel = _EXACT_KERNELS[kind]
    gamma = 0.3 if kind == COMPLEMENT else -0.2
    u1 = rng.uniform(0.05, 1.0, (6, 1, 1))
    u2 = rng.uniform(0.05, 1.0, (1, 5, 1))
    fee = rng.uniform(0.0, 2.5, (1, 1, 7))
    block = kernel(fee, u1, u2, gamma, EXACT_GEOMETRY)
    inside = fee <= _interior_edge(kind, u1, u2, gamma)
    assert block.shape == (6, 5, 7) and inside.any() and not inside.all()
    for i, j, k in np.ndindex(block.shape):
        alone = kernel(float(fee[0, 0, k]), float(u1[i, 0, 0]), float(u2[0, j, 0]), gamma,
                       EXACT_GEOMETRY)
        assert isinstance(alone, float) and alone.hex() == float(block[i, j, k]).hex()
    u1 = rng.uniform(0.05, 1.0, 129)
    p, u2 = 0.5, 0.7
    row = kernel(p, u1, u2, gamma, EXACT_GEOMETRY)
    inside = p <= _interior_edge(kind, u1, u2, gamma)
    assert inside.any() and not inside.all()
    for i in range(129):
        assert kernel(p, float(u1[i]), u2, gamma, EXACT_GEOMETRY).hex() == float(row[i]).hex()


def _nonbuy_area_reference(q, u1, u2, width, height):
    """demand._nonbuy_area as it was before it finished its result in place."""
    a = u1 * width
    b = u2 * height
    span = a + b
    flip = q > 0.5 * span
    q_low = np.maximum(np.where(flip, span - q, q), 0.0)
    h = np.minimum(q_low, np.minimum(a, b))
    num, den = h * (2.0 * q_low - h), 2.0 * u1 * u2
    low = np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=h != 0)
    return np.where(flip, width * height - low, low)


def test_in_place_nonbuy_area_keeps_the_bits_of_the_reference():
    # grid-block shapes (and numbers), with zeros that make h = 0, a width of
    # 0, qualities whose product underflows, and nan and inf inputs
    rng = np.random.default_rng(2023)
    shapes = [None, (1,), (3, 1, 1), (1, 4, 1), (1, 1, 5)]
    specials = {"q": (0.0, -0.0, np.nan, np.inf), "u": (1e-170, np.nan, np.inf),
                "box": (0.0, -0.0, 1.0, np.nan)}

    def draw(lo, hi, kind):
        shape = shapes[rng.integers(len(shapes))]
        x = rng.uniform(lo, hi, shape or ())
        if rng.random() < 0.4:
            x.flat[rng.integers(x.size)] = rng.choice(specials[kind])
        return float(x) if shape is None else x

    for _ in range(800):
        args = (draw(0.0, 3.0, "q"), draw(0.01, 1.0, "u"), draw(0.01, 1.0, "u"),
                draw(0.0, 1.0, "box"), draw(0.0, 1.0, "box"))
        with np.errstate(all="ignore"):
            got, want = demand._nonbuy_area(*args), _nonbuy_area_reference(*args)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# a service whose quality is negative past r = 0.11
LOW = ServiceSpec(QualityParams(0.5, 0.4, 2.0), n=100, c=0.2)
NON_FINITE = (float("nan"), float("inf"), -float("inf"))
_LOW_SCENARIO = SeparateScenario(service=LOW, market=MARKET)
_LOW_BUNDLES = {kind: dataclasses.replace(b, s2=LOW) for kind, b in BUNDLES.items()}


def _invalid_calls():
    """(function, valid arguments, position, invalid values) per input class."""
    cases = [
        ("evaluate_quality", lambda r: evaluate_quality(r, S1), (0.3,), 0, (*NON_FINITE, -0.1)),
        ("gross_profit_separate-r", lambda r, p: gross_profit_separate(SCENARIO, r, p),
         (0.3, 0.4), 0, (*NON_FINITE, -0.1, 1.1)),
        ("gross_profit_separate-fee", lambda r, p: gross_profit_separate(SCENARIO, r, p),
         (0.3, 0.4), 1, (*NON_FINITE, -0.1)),
        ("gross_profit_separate-u", lambda r, p: gross_profit_separate(_LOW_SCENARIO, r, p),
         (0.05, 0.1), 0, (0.5,)),
        ("prob_buy_separate-fee", prob_buy_separate, (0.3, 0.7), 0, (*NON_FINITE, -0.1)),
        ("prob_buy_separate-u", prob_buy_separate, (0.3, 0.7), 1, (*NON_FINITE, 0.0, -0.2)),
    ]
    for mode in (PAPER_FORM, EXACT_GEOMETRY):
        for kind, rule, gamma, bad_gammas in (
            (COMPLEMENT, prob_buy_complement, 0.1, (*NON_FINITE, -0.1)),
            (SUBSTITUTE, prob_buy_substitute, -0.1, (*NON_FINITE, -0.5, -0.6, 0.0, 0.1)),
        ):
            call = (lambda rule, mode: lambda *x: rule(*x, mode))(rule, mode)
            valid = (0.6, 0.7, 0.8, gamma)
            cases += [
                (f"prob_buy_{kind}-{mode}-fee", call, valid, 0, (*NON_FINITE, -0.1)),
                (f"prob_buy_{kind}-{mode}-u1", call, valid, 1, (*NON_FINITE, 0.0, -0.2)),
                (f"prob_buy_{kind}-{mode}-u2", call, valid, 2, (*NON_FINITE, 0.0, -0.2)),
                (f"prob_buy_{kind}-{mode}-gamma", call, valid, 3, bad_gammas),
            ]
            profit = (lambda b, mode: lambda *x: gross_profit_bundle(b, *x, mode))(BUNDLES[kind], mode)
            low = (lambda b, mode: lambda *x: gross_profit_bundle(b, *x, mode))(_LOW_BUNDLES[kind], mode)
            valid = (0.3, 0.05, 0.6)
            cases += [
                (f"gross_profit_bundle-{kind}-{mode}-r1", profit, valid, 0, (*NON_FINITE, -0.1, 1.1)),
                (f"gross_profit_bundle-{kind}-{mode}-r2", profit, valid, 1, (*NON_FINITE, -0.1, 1.1)),
                (f"gross_profit_bundle-{kind}-{mode}-fee", profit, valid, 2, (*NON_FINITE, -0.1)),
                (f"gross_profit_bundle-{kind}-{mode}-u", low, valid, 1, (0.5,)),
            ]
    return cases


@pytest.mark.parametrize("fn, valid, position, bad_values",
                         [pytest.param(*case[1:], id=case[0]) for case in _invalid_calls()])
def test_every_invalid_class_raises_through_both_branches(fn, valid, position, bad_values):
    for bad in bad_values:
        scalar = list(valid)
        scalar[position] = bad
        array = list(valid)
        array[position] = np.array([valid[position], bad, valid[position]])
        for args in (scalar, array):
            with pytest.raises(DomainError):
                fn(*args)


def test_unknown_demand_mode_raises():
    # the lattice helpers check the mode up front: their box once took every
    # mode but "paper" for exact, and an empty mode for "paper"
    for call in (lambda mode: prob_buy_complement(0.6, 0.7, 0.8, 0.1, mode),
                 lambda mode: prob_buy_substitute(0.6, 0.7, 0.8, -0.1, mode),
                 lambda mode: gross_profit_bundle(BUNDLES[COMPLEMENT], 0.3, 0.4, 0.5, mode),
                 lambda mode: bundle_objective(_shipped(COMPLEMENT), mode),
                 lambda mode: bundle_grid(_shipped(COMPLEMENT), 5, demand_mode=mode)):
        for mode in ("bogus", ""):
            with pytest.raises(DomainError, match="demand mode"):
                call(mode)


@pytest.mark.parametrize("market", ["separate", COMPLEMENT, SUBSTITUTE])
def test_both_markets_reject_an_unknown_mode(market):
    # a single service has one demand form, yet its market checks the mode as a bundle does
    target = SCENARIO if market == "separate" else _shipped(market)
    qualities = (0.7,) * len(target.services)
    for call in (lambda mode: target.optimize(mode),
                 lambda mode: target.profit_surface(mode),
                 lambda mode: target.buy_probability(0.5, qualities, mode)):
        with pytest.raises(DomainError, match="demand mode"):
            call("bogus")
        call(PAPER_FORM)


def _spy(monkeypatch, *places):
    """One list of the arguments of every call of the functions bound at (module, name) places."""
    calls = []

    def wrap(real):
        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return spy

    for module, name in places:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return calls


def _count_validated_calls(monkeypatch):
    return _spy(monkeypatch, (bundle, "gross_profit_bundle"))


@pytest.mark.parametrize("kind, variant, mode, verify", [
    (COMPLEMENT, "shipped", PAPER_FORM, False),
    (SUBSTITUTE, "shipped", PAPER_FORM, False),
    (SUBSTITUTE, "shipped", PAPER_FORM, True),
    (COMPLEMENT, "shipped", PAPER_FORM, True),
    (COMPLEMENT, "c=0", PAPER_FORM, False),
    (COMPLEMENT, "c=5", PAPER_FORM, False),
    *((kind, variant, EXACT_GEOMETRY, verify) for kind in (COMPLEMENT, SUBSTITUTE)
      for variant in ("shipped", "c=0", "c=5") for verify in (False, True)),
])
def test_solve_validates_once(kind, variant, mode, verify, monkeypatch):
    # a solve that runs a grid or an ascent checks its box once, on floats;
    # the grids and the ascent's slices run on the kernel, and nothing derives
    # the box again; a closed-form complement builds no box
    b = _shipped(kind) if variant == "shipped" else _with_wage(_shipped(kind), float(variant[2:]))
    checks = _spy(monkeypatch, (bundle, "_check_box"))
    caps = _spy(monkeypatch, (bundle, "privacy_cap"), (separate, "privacy_cap"))
    others = _spy(monkeypatch, (bundle, "bundle_grid"), (bundle, "evaluate_quality"),
                  (quality, "evaluate_quality"), (bundle, "gross_profit_bundle"))
    opt = optimize_bundle(b, demand_mode=mode, verify=verify, verify_points=48)
    closed_form = (kind, variant, mode, verify) == (COMPLEMENT, "shipped", PAPER_FORM, False)
    assert (opt.fallback or verify) != closed_form
    assert len(checks) == (0 if closed_form else 1)
    assert len(caps) == 2
    assert others == []


def test_closed_form_solve_makes_no_validated_call(monkeypatch):
    calls = _count_validated_calls(monkeypatch)
    assert not optimize_bundle(_shipped(COMPLEMENT)).fallback
    assert calls == []


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_nan_box_corner_raises_before_any_grid(kind, mode, monkeypatch):
    # qualities near 1e-160 make the profit 0/0 at a corner of the box
    q = QualityParams(1e-160, 1e-170, 50.0)
    b = dataclasses.replace(_shipped(kind), s1=ServiceSpec(q, 100, 0.2), s2=ServiceSpec(q, 100, 0.2))
    grids = []
    monkeypatch.setattr(bundle.oracles, "grid_maximize", lambda *args: grids.append(args))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(DomainError, match="NaN"):
        optimize_bundle(b, demand_mode=mode, verify=True)
    assert grids == []


def _extreme_bundle(rng, kind):
    """A bundle whose magnitudes are drawn log-uniformly up to the ceilings; DomainError
    where the draw is no valid bundle."""
    def magnitude(lo, hi):
        return float(10.0 ** rng.uniform(lo, hi))

    services = []
    for _ in range(2):
        alpha1 = magnitude(-300, 100)
        q = QualityParams(alpha1, alpha1 * magnitude(-20, -0.01), magnitude(-3, 100))
        services.append(ServiceSpec(q, 100, 0.0 if rng.random() < 0.1 else magnitude(-5, 100)))
    gamma = magnitude(-5, 100) if kind == COMPLEMENT else float(rng.uniform(-0.49, -0.01))
    return BundleSpec(*services, MarketSpec(m=int(magnitude(0, 100))), gamma, kind)


def _corner_nan_conditions(b, mode):
    """Whether the box's corner profits hold a nan, and the three conditions of _check_box's
    docstring; first, that the rules _check_box leaves out hold on the box."""
    with np.errstate(all="ignore"):
        box = bundle._box(b, mode)
    demand._check_privacy(*box[:2])
    demand._check_fee(box[2])
    u = [quality._quality(r, svc.quality) for svc, cap in zip(b.services, box[:2])
         for r in (0.0, cap)]
    demand._check_positive_quality(*u)
    corners = (np.array((0.0, hi)).reshape(shape)
               for hi, shape in zip(box, ((2, 1, 1), (1, 2, 1), (1, 1, 2))))
    with np.errstate(all="ignore"):
        nan = bool(np.isnan(bundle._profit(b, *corners, mode)).any())
        return nan, (box[2] * box[2] == np.inf,
                     (1.0 + b.gamma) * (1.0 + b.gamma) * u[1] * u[3] == 0.0,
                     mode == EXACT_GEOMETRY and u[1] * u[3] == 0.0)


def test_a_nan_box_corner_meets_one_of_three_conditions():
    # the fee's square overflowing, (1+gamma)^2*u1*u2 underflowing at the caps,
    # or, in exact mode, u1*u2 underflowing there alone (_check_box); tiny's
    # exact corner is 0/0 in _nonbuy_area under the third alone.  The rules
    # _check_box leaves out (caps in [0, 1], p_hi finite, u(0) and u(cap) > 0)
    # hold on every box
    tiny = BundleSpec(ServiceSpec(QualityParams(1e-100, 1e-106, 10.0), 100, 0.2),
                      ServiceSpec(QualityParams(1e-243, 1e-247, 1.0), 100, 0.2),
                      MarketSpec(m=1000), 1e95, COMPLEMENT)
    assert _corner_nan_conditions(tiny, EXACT_GEOMETRY) == (True, (False, False, True))
    rng = np.random.default_rng(2026)
    nan_sets = only_third = 0
    for j in range(6000):
        try:
            b = _extreme_bundle(rng, (COMPLEMENT, SUBSTITUTE)[j % 2])
        except DomainError:
            continue
        for mode in (PAPER_FORM, EXACT_GEOMETRY):
            nan, (overflow, scaled, unscaled) = _corner_nan_conditions(b, mode)
            if nan:
                assert overflow or scaled or unscaled, (j, mode)
                nan_sets += 1
                only_third += not (overflow or scaled)
    assert nan_sets > 1000 and only_third > 0


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_exact_solve_scores_corners_and_starts_in_one_call(kind, verify, monkeypatch):
    # before its first sweep an exact solve makes one profit call: the box's
    # eight corners, then its three starts, the sweeps starting from the best
    events = []
    real_profit, real_sweeps = bundle._profit, bundle._exact_sweeps

    def profit(b, r1, r2, p, mode):
        values = real_profit(b, r1, r2, p, mode)
        events.append(("profit", (r1, r2, p), values))
        return values

    def sweeps(b, start, box):
        events.append(("sweeps", start, box))
        return real_sweeps(b, start, box)

    monkeypatch.setattr(bundle, "_profit", profit)
    monkeypatch.setattr(bundle, "_exact_sweeps", sweeps)
    for b in (_shipped(kind), _with_wage(_shipped(kind), 0.0), _with_wage(_shipped(kind), 5.0)):
        events.clear()
        optimize_bundle(b, demand_mode=EXACT_GEOMETRY, verify=verify, verify_points=12)
        first_sweep = [e[0] for e in events].index("sweeps")
        assert [e[0] for e in events[:first_sweep]] == ["profit"]
        (_, points, values), (_, start, box) = events[0], events[first_sweep]
        points = np.array(points)
        assert points.shape == (3, 11)
        corners = {tuple(point) for point in points[:, :8].T}
        assert corners == set(itertools.product(*((0.0, hi) for hi in box)))
        starts = [tuple(point) for point in points[:, 8:].T]
        assert tuple(start) == starts[int(np.argmax(values[8:]))]


def _no_sweep(*args):
    raise AssertionError("swept a box with a nan corner")


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_nan_exact_corner_raises_before_any_sweep(kind, verify, monkeypatch):
    # the call that scores the corners and the starts raises the nan-grid
    # error, and no sweep runs
    q = QualityParams(1e-160, 1e-170, 50.0)
    b = dataclasses.replace(_shipped(kind), s1=ServiceSpec(q, 100, 0.2), s2=ServiceSpec(q, 100, 0.2))
    monkeypatch.setattr(bundle, "_exact_sweeps", _no_sweep)
    with pytest.raises(DomainError, match="objective produced NaN on the grid"):
        optimize_bundle(b, demand_mode=EXACT_GEOMETRY, verify=verify)


def test_exact_nan_corners_raise_their_error_first():
    # the starts are computed before the corner check; on extreme draws a solve
    # raises the nan-grid error exactly where the corners hold a nan, no other first
    rng = np.random.default_rng(3)
    nan_sets = 0
    for j in range(1500):
        try:
            b = _extreme_bundle(rng, (COMPLEMENT, SUBSTITUTE)[j % 2])
        except DomainError:
            continue
        nan, _ = _corner_nan_conditions(b, EXACT_GEOMETRY)
        try:
            optimize_bundle(b, demand_mode=EXACT_GEOMETRY)
            error = None
        except (DomainError, RuntimeWarning) as exc:
            error = str(exc)
        assert (error == "objective produced NaN on the grid; domain is not valid") == nan, (j, error)
        nan_sets += nan
    assert nan_sets > 100


def test_unknown_demand_mode_is_rejected_by_the_solver():
    for kind in (COMPLEMENT, SUBSTITUTE):
        with pytest.raises(DomainError, match="demand mode"):
            optimize_bundle(_shipped(kind), demand_mode="bogus")


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_kernel_lattices_match_the_public_oracle(kind, mode, monkeypatch):
    # every lattice optimize_bundle evaluates on the kernel, the paper seed
    # grid included, has the validating objective's maximum bit for bit
    real = bundle.oracles.grid_maximize
    lattices = []

    def recorded(objective, grid):
        lattices.append((real(objective, grid), grid))
        return lattices[-1][0]

    monkeypatch.setattr(bundle.oracles, "grid_maximize", recorded)
    rng = np.random.default_rng(4242)
    for b in [_shipped(kind), *(random_bundle(rng, kind) for _ in range(4))]:
        lattices.clear()
        opt = optimize_bundle(b, demand_mode=mode, verify=True, verify_points=25)
        assert opt.grid == real(bundle_objective(b, mode), bundle_grid(b, 25, mode))
        for result, grid in lattices:
            assert result == real(bundle_objective(b, mode), grid)
        # the grid only certifies: the verified solve returns the unverified one
        plain = optimize_bundle(b, demand_mode=mode)
        assert (_optimum_bits(opt)[:4], opt.fallback, opt.clamped_variables) == (
            _optimum_bits(plain), plain.fallback, plain.clamped_variables)


@pytest.mark.parametrize("variant", ["shipped", "c=0", "c=5"])
@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_exact_solve_runs_no_grid(kind, variant, monkeypatch):
    # the ascent starts from closed forms, not from a seed grid
    calls = []
    monkeypatch.setattr(bundle.oracles, "grid_maximize", lambda *args: calls.append(args))
    b = _shipped(kind)
    if variant != "shipped":
        b = _with_wage(b, float(variant[2:]))
    optimize_bundle(b, demand_mode=EXACT_GEOMETRY)
    assert calls == []
