from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from privmarket import (
    COMPLEMENT,
    SUBSTITUTE,
    ContingencyInput,
    DomainError,
    EXACT_GEOMETRY,
    PAPER_FORM,
    MarketSpec,
    degree_of_contingency,
    prob_buy_complement,
    prob_buy_separate,
    prob_buy_substitute,
)
from privmarket.demand import _buy_bundle, _nonbuy_area
from privmarket.quality import MAX_MAGNITUDE


def _clip_halfplane(poly, a, b, c):
    """Sutherland-Hodgman step: keep the part of poly with a*x + b*y <= c."""
    out = []
    for i, (px, py) in enumerate(poly):
        qx, qy = poly[(i + 1) % len(poly)]
        p_in = a * px + b * py <= c
        q_in = a * qx + b * qy <= c
        if p_in:
            out.append((px, py))
        if p_in != q_in:
            t = (c - a * px - b * py) / (a * (qx - px) + b * (qy - py))
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _polygon_area(poly):
    """Shoelace area of a simple polygon."""
    twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))
    return abs(twice) / 2.0 if len(poly) >= 3 else 0.0


def _polygon_buy_probability(kind, fee, u1, u2, gamma):
    """Oracle: clip the unit square to the non-buy region and measure it."""
    poly = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    if kind == "substitute":
        poly = _clip_halfplane(poly, 1.0, 0.0, fee / u1)
        poly = _clip_halfplane(poly, 0.0, 1.0, fee / u2)
    poly = _clip_halfplane(poly, u1, u2, fee / (1.0 + gamma))
    return min(max(1.0 - _polygon_area(poly), 0.0), 1.0)


@st.composite
def _bundle_regions(draw, kinds=("complement", "substitute")):
    """(kind, fee, u1, u2, gamma) with fees at the geometry's break points.

    The fee sits near the triangle edge (1+gamma)*min(u1, u2), between the
    two strip edges min(u1, u2) and max(u1, u2), anywhere up to the far
    corner (1+gamma)*(u1 + u2), or far past it.
    """
    kind = draw(st.sampled_from(kinds))
    u1 = draw(st.floats(0.05, 1.0))
    u2 = draw(st.floats(0.05, 1.0))
    if kind == "complement":
        gamma = draw(st.floats(0.0, 2.0))
    else:
        gamma = draw(st.floats(-0.49, -1e-6))
    lo, hi = min(u1, u2), max(u1, u2)
    corner = (1.0 + gamma) * (u1 + u2)
    fee = draw(st.one_of(
        st.floats(0.999, 1.001).map(lambda s: s * (1.0 + gamma) * lo),
        st.floats(lo, hi),
        st.floats(0.0, corner),
        st.floats(1.0, 1e6).map(lambda s: s * corner),
    ))
    return kind, fee, u1, u2, gamma


_EXACT = {"complement": prob_buy_complement, "substitute": prob_buy_substitute}


@given(_bundle_regions())
def test_exact_geometry_matches_polygon_oracle(region):
    kind, fee, u1, u2, gamma = region
    exact = _EXACT[kind](fee, u1, u2, gamma, EXACT_GEOMETRY)
    assert abs(exact - _polygon_buy_probability(kind, fee, u1, u2, gamma)) <= 1e-12


@given(st.sampled_from(sorted(_EXACT)).flatmap(
    lambda kind: st.lists(_bundle_regions((kind,)), min_size=1, max_size=8)))
# float pow(1 + gamma, 2) is one ulp off numpy's square of the gamma array here
@example(regions=[("complement", 2.883732198454577, 1.0, 1.0, 1.883732198454577)])
def test_exact_geometry_array_call_matches_scalar_calls(regions):
    kind = regions[0][0]
    fee, u1, u2, gamma = (np.array(col) for col in list(zip(*regions))[1:])
    batch = _EXACT[kind](fee, u1, u2, gamma, EXACT_GEOMETRY)
    scalar = [_EXACT[kind](*r[1:], EXACT_GEOMETRY) for r in regions]
    np.testing.assert_array_equal(batch, scalar)


def test_market_spec_validates():
    MarketSpec(m=1)
    with pytest.raises(DomainError):
        MarketSpec(m=0)


def test_market_spec_has_a_magnitude_ceiling():
    # the ceiling of c, the alphas and gamma; at M = 10**160 the bundle closed forms'
    # m*m was an int past float range, an OverflowError; so was the message's m past it
    MarketSpec(m=int(MAX_MAGNITUDE))
    for m, shown in ((int(MAX_MAGNITUDE) + 1, "1e\\+100"), (10**160, "1e\\+160"),
                     (10**400, "1e\\+400")):
        with pytest.raises(DomainError, match="customer count must be at most 1e\\+100, got " + shown):
            MarketSpec(m=m)


@pytest.mark.parametrize("m", [True, False, 2.0, "5", None, np.int64(5)])
def test_market_spec_rejects_bools_and_non_integers(m):
    with pytest.raises(DomainError, match="customer count must be a positive integer"):
        MarketSpec(m=m)


@pytest.mark.parametrize("field", ["theta_b", "theta_1", "theta_2"])
@pytest.mark.parametrize("value, accepted", [
    (0, True), (0.5, True), (np.float32(0.5), True), (np.int64(2), True),
    (True, False), (False, False), ("1", False), (None, False), (1j, False), (float("nan"), False),
])
def test_contingency_input_accepts_real_numbers_only(field, value, accepted):
    values = {"theta_b": 1.0, "theta_1": 0.5, "theta_2": 0.5, field: value}
    if accepted:
        ContingencyInput(**values)
    else:
        with pytest.raises(DomainError, match=f"{field} must be finite and nonnegative"):
            ContingencyInput(**values)


class TestSeparate:
    def test_half_the_customers_buy(self):
        assert prob_buy_separate(0.4, 0.8) == pytest.approx(0.5)

    def test_free_service_is_always_bought(self):
        assert prob_buy_separate(0.0, 0.37) == 1.0

    def test_overpriced_service_clamps_to_zero(self):
        assert prob_buy_separate(1.0, 0.8) == 0.0

    def test_nonpositive_quality_rejected(self):
        with pytest.raises(DomainError):
            prob_buy_separate(0.4, 0.0)

    @given(st.floats(0.0, 3.0), st.floats(0.05, 1.0))
    def test_bounds(self, fee, quality):
        assert 0.0 <= prob_buy_separate(fee, quality) <= 1.0


class TestComplement:
    def test_unit_triangle(self):
        for mode in (PAPER_FORM, EXACT_GEOMETRY):
            assert prob_buy_complement(1.0, 1.0, 1.0, 0.0, mode) == pytest.approx(0.5)

    def test_reference_point(self):
        # 1 - 0.5*0.754^2/(1.21*0.805*0.859)
        assert prob_buy_complement(0.754, 0.805, 0.859, 0.1) == pytest.approx(0.660266572, abs=1e-9)

    def test_modes_bit_identical_on_triangle_geometry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u1, u2 = rng.uniform(0.3, 1.0, size=2)
            gamma = rng.uniform(0.0, 0.5)
            fee = rng.uniform(0.0, (1.0 + gamma) * min(u1, u2))
            assert prob_buy_complement(fee, u1, u2, gamma, PAPER_FORM) == prob_buy_complement(
                fee, u1, u2, gamma, EXACT_GEOMETRY
            )

    def test_fee_beyond_square_kills_demand_in_both_modes(self):
        # the whole square sits below the line here, so both modes hit 0
        assert prob_buy_complement(1.2, 0.5, 0.5, 0.0, PAPER_FORM) == 0.0
        assert prob_buy_complement(1.2, 0.5, 0.5, 0.0, EXACT_GEOMETRY) == 0.0

    def test_modes_disagree_on_trapezoid_geometry(self):
        # line exits through the top edge: clamped linear form undercounts
        paper = prob_buy_complement(0.5, 0.805, 0.4, 0.0, PAPER_FORM)
        exact = prob_buy_complement(0.5, 0.805, 0.4, 0.0, EXACT_GEOMETRY)
        assert paper == pytest.approx(0.611801242, abs=1e-9)
        assert exact == pytest.approx(0.627329193, abs=1e-9)
        assert exact > paper

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            prob_buy_complement(0.5, 0.8, 0.8, -0.05)

    @given(
        st.floats(0.0, 3.0),
        st.floats(0.2, 1.0),
        st.floats(0.2, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([PAPER_FORM, EXACT_GEOMETRY]),
    )
    def test_bounds(self, fee, u1, u2, gamma, mode):
        assert 0.0 <= prob_buy_complement(fee, u1, u2, gamma, mode) <= 1.0

    @given(
        st.floats(0.05, 1.5),
        st.floats(0.2, 1.0),
        st.floats(0.2, 1.0),
        st.floats(0.0, 1.0),
        st.sampled_from([PAPER_FORM, EXACT_GEOMETRY]),
    )
    def test_monotone(self, fee, u1, u2, gamma, mode):
        base = prob_buy_complement(fee, u1, u2, gamma, mode)
        assert prob_buy_complement(fee + 0.05, u1, u2, gamma, mode) <= base + 1e-12
        assert prob_buy_complement(fee, u1 + 0.05, u2, gamma, mode) >= base - 1e-12
        assert prob_buy_complement(fee, u1, u2 + 0.05, gamma, mode) >= base - 1e-12
        assert prob_buy_complement(fee, u1, u2, gamma + 0.05, mode) >= base - 1e-12


class TestSubstitute:
    def test_vanishing_contingency_limit(self):
        for mode in (PAPER_FORM, EXACT_GEOMETRY):
            assert prob_buy_substitute(0.5, 1.0, 1.0, -1e-9, mode) == pytest.approx(0.875, abs=1e-7)

    def test_reference_point_paper_form(self):
        assert prob_buy_substitute(0.58, 0.811, 0.793, -0.1) == pytest.approx(0.670658012, abs=1e-9)

    def test_reference_point_exact_geometry(self):
        # independent corner-region area carries (0.5 - gamma^2) where the
        # linear form carries (0.5 + gamma^2); the gap is real and reported
        exact = prob_buy_substitute(0.58, 0.811, 0.793, -0.1, EXACT_GEOMETRY)
        assert exact == pytest.approx(0.683573384, abs=1e-9)
        paper = prob_buy_substitute(0.58, 0.811, 0.793, -0.1, PAPER_FORM)
        assert exact - paper == pytest.approx(2 * 0.1**2 * 0.58**2 / (0.81 * 0.811 * 0.793), abs=1e-9)

    def test_gamma_window_enforced(self):
        for gamma in (-0.5, -0.7, 0.0, 0.1):
            with pytest.raises(DomainError):
                prob_buy_substitute(0.5, 0.8, 0.8, gamma)

    @given(
        st.floats(0.0, 3.0),
        st.floats(0.2, 1.0),
        st.floats(0.2, 1.0),
        st.floats(-0.45, -0.01),
        st.sampled_from([PAPER_FORM, EXACT_GEOMETRY]),
    )
    def test_bounds(self, fee, u1, u2, gamma, mode):
        assert 0.0 <= prob_buy_substitute(fee, u1, u2, gamma, mode) <= 1.0

    @given(
        st.floats(0.05, 1.5),
        st.floats(0.2, 1.0),
        st.floats(0.2, 1.0),
        st.floats(-0.44, -0.02),
        st.sampled_from([PAPER_FORM, EXACT_GEOMETRY]),
    )
    def test_monotone(self, fee, u1, u2, gamma, mode):
        base = prob_buy_substitute(fee, u1, u2, gamma, mode)
        assert prob_buy_substitute(fee + 0.05, u1, u2, gamma, mode) <= base + 1e-12
        assert prob_buy_substitute(fee, u1 + 0.05, u2, gamma, mode) >= base - 1e-12
        assert prob_buy_substitute(fee, u1, u2 + 0.05, gamma, mode) >= base - 1e-12
        assert prob_buy_substitute(fee, u1, u2, gamma + 0.01, mode) >= base - 1e-12

    @given(
        st.floats(0.05, 1.5),
        st.floats(0.2, 1.0),
        st.floats(0.2, 1.0),
        st.floats(-0.45, -0.01),
    )
    def test_corner_strips_enlarge_the_line_region(self, fee, u1, u2, gamma):
        # with the bundle line held fixed, substitute demand adds the two
        # single-service strips, so it dominates the line-only region: the
        # exact complement rule, whose geometry holds for any gamma > -1
        line_only = _buy_bundle(fee, u1, u2, gamma, COMPLEMENT, EXACT_GEOMETRY)
        assert prob_buy_substitute(fee, u1, u2, gamma, EXACT_GEOMETRY) >= line_only - 1e-12


@pytest.mark.parametrize("mode", [PAPER_FORM, EXACT_GEOMETRY])
# a large gamma keeps (1+gamma)^2*u1*u2 in range while u1*u2 underflows (the exact area's
# denominator): the exact mode once returned nan where the paper mode returned 0
@pytest.mark.parametrize("rule, gamma", [(prob_buy_complement, 0.1), (prob_buy_substitute, -0.1),
                                         (prob_buy_complement, 1e100)],
                         ids=["complement", "substitute", "complement-large-gamma"])
@pytest.mark.parametrize("u1", [1e-170, np.array([0.5, 1e-170])], ids=["float", "array"])
def test_underflowing_quality_product_is_a_domain_error(rule, gamma, mode, u1):
    # (1+gamma)^2*u1*u2 underflows to 0: floats once divided by it (ZeroDivisionError),
    # arrays and the exact substitute warned; no floating-point error may come first
    with np.errstate(divide="raise", over="raise", invalid="raise"), \
            pytest.raises(DomainError, match="underflows to 0"):
        rule(0.5, u1, 1e-170, gamma, mode)
    # a product just above the underflow gives a probability
    with np.errstate(all="ignore"):
        buy = rule(0.5, u1 * 1e20, 1e-170, gamma, mode)
    assert np.all((0.0 <= buy) & (buy <= 1.0))


@pytest.mark.parametrize("rule, fee, u, gamma, mode", [
    (prob_buy_complement, 1e199, 1e99, 1e99, PAPER_FORM),
    (prob_buy_substitute, 1e200, 1e200, -0.1, EXACT_GEOMETRY),
], ids=["complement-paper", "substitute-exact"])
@pytest.mark.parametrize("as_fee", [float, np.float64, lambda v: np.array([0.5, v])],
                         ids=["float", "numpy-scalar", "array"])
def test_fee_and_quality_scale_overflowing_together_is_a_domain_error(rule, fee, u, gamma, mode,
                                                                     as_fee):
    # fee^2 and (1+gamma)^2*u1*u2 both overflow and the linear form divided inf by
    # inf: nan, silently on floats and after two RuntimeWarnings on numpy values
    with np.errstate(over="raise", invalid="raise"), \
            pytest.raises(DomainError, match="NaN at fee .*overflow together"):
        rule(as_fee(fee), u, u, gamma, mode)
    # the fee's square overflowing alone leaves no buyer, with no warning
    with np.errstate(over="raise", invalid="raise"):
        assert np.ravel(rule(as_fee(fee), 1.0, 1.0, gamma, mode))[-1] == 0.0


@pytest.mark.parametrize("q, width", [(np.array([0.0]), 1.0), (np.array([0.3]), 0.0), (0.0, 1.0)],
                         ids=["fee-0", "no-width", "float"])
def test_nonbuy_area_is_zero_where_nothing_lies_below_the_line(q, width):
    # h = 0 with 2*u1*u2 underflowing to 0 once gave 0/0: nan and an invalid-value warning
    with np.errstate(all="raise"):
        area = _nonbuy_area(q, 1e-170, 1e-170, width, 1.0)
    assert np.all(area == 0.0) and np.shape(area) == np.shape(q)


def _rational_nonbuy_area(kind, fee, u1, u2, gamma):
    """The exact non-buy area at float inputs, by inclusion-exclusion in rationals."""
    fee, u1, u2, gamma = map(Fraction, (fee, u1, u2, gamma))
    width = height = Fraction(1)
    if kind == SUBSTITUTE:
        width, height = min(width, fee / u1), min(height, fee / u2)
    q, a, b = fee / (1 + gamma), u1 * width, u2 * height

    def corner(s):
        return max(s, 0) ** 2 / (2 * u1 * u2)

    return corner(q) - corner(q - a) - corner(q - b) + corner(q - a - b)


@pytest.mark.parametrize("kind", [COMPLEMENT, SUBSTITUTE])
def test_exact_nonbuy_area_is_rational_inclusion_exclusion_to_4_ulps(kind):
    # the area each exact rule takes: the linear form's term on interior
    # geometry, the clipped box's measure off it; the rule is 1 minus it, clamped
    rng = np.random.default_rng(20)
    sides = {True: 0, False: 0}
    for _ in range(2000):
        u1, u2 = rng.uniform(0.05, 1.0, 2)
        if kind == COMPLEMENT:
            gamma = rng.uniform(0.0, 2.0)
            factor, edge, width, height = 0.5, (1.0 + gamma) * min(u1, u2), 1.0, 1.0
        else:
            gamma = rng.uniform(-0.49, -1e-6)
            factor, edge = 0.5 - gamma * gamma, min(u1, u2)
        fee = edge * rng.uniform(0.0, 2.5)
        inside = fee <= edge
        if inside:
            area = factor * (fee * fee) / ((1.0 + gamma) * (1.0 + gamma) * u1 * u2)
        else:
            if kind == SUBSTITUTE:
                width, height = min(1.0, fee / u1), min(1.0, fee / u2)
            area = float(_nonbuy_area(fee / (1.0 + gamma), u1, u2, width, height))
        sides[inside] += 1
        exact = _rational_nonbuy_area(kind, fee, u1, u2, gamma)
        # an ulp of the area's size: 2^-52 relative
        assert abs(Fraction(area) - exact) <= 4 * exact * Fraction(2) ** -52
        rule = _EXACT[kind](fee, u1, u2, gamma, EXACT_GEOMETRY)
        assert rule == min(max(1.0 - area, 0.0), 1.0)
    assert min(sides.values()) > 500


class TestContingency:
    def test_premium(self):
        assert degree_of_contingency(ContingencyInput(1.1, 0.5, 0.5)) == pytest.approx(0.1)

    def test_boundary(self):
        assert degree_of_contingency(ContingencyInput(1.0, 0.5, 0.5)) == 0.0

    def test_discount(self):
        assert degree_of_contingency(ContingencyInput(0.9, 0.5, 0.5)) == pytest.approx(-0.1)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            degree_of_contingency(ContingencyInput(1.0, 0.0, 0.0))

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            ContingencyInput(-0.1, 0.5, 0.5)
