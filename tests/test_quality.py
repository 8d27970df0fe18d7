
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from privmarket import (
    DomainError,
    FitOptions,
    QualityParams,
    QualitySample,
    evaluate_quality,
    fit_quality_curve,
    load_samples,
    max_privacy,
    quality_derivatives,
)

from conftest import S1_PARAMS, S2_PARAMS, S3_PARAMS

PARAM_TRIPLES = [S1_PARAMS, S2_PARAMS, S3_PARAMS]

valid_params = st.builds(
    lambda a1, frac, a3: QualityParams(a1, max(frac * a1, 1e-4), a3),
    st.floats(0.2, 1.5),
    st.floats(1e-3, 0.5),
    st.floats(0.3, 6.0),
)


def test_quality_at_zero_is_ceiling_minus_scale():
    assert evaluate_quality(0.0, S1_PARAMS) == pytest.approx(0.818, abs=1e-12)


def test_quality_direct_evaluation():
    assert evaluate_quality(0.62, S1_PARAMS) == pytest.approx(0.799117913, abs=1e-9)


def test_quality_matches_reported_rounded_value():
    # reference table rounds u(0.513) to 0.82; stay within 2 percent of it
    u = evaluate_quality(0.513, S1_PARAMS)
    assert u == pytest.approx(0.805065324, abs=1e-9)
    assert abs(u - 0.82) / 0.82 < 0.02


def test_quality_rejects_bad_inputs():
    with pytest.raises(DomainError):
        evaluate_quality(float("nan"), S1_PARAMS)
    with pytest.raises(DomainError):
        evaluate_quality(-0.1, S1_PARAMS)
    with pytest.raises(DomainError):
        QualityParams(0.5, 0.6, 1.0)  # ceiling below scale
    with pytest.raises(DomainError):
        QualityParams(0.5, -0.1, 1.0)
    with pytest.raises(DomainError):
        QualityParams(0.5, 0.1, 0.0)


@pytest.mark.parametrize("field", ["alpha1", "alpha2", "alpha3"])
@pytest.mark.parametrize("value", [True, False, "0.5", None, 1j, np.float32(0.5), float("nan"),
                                   float("inf")])
def test_quality_params_reject_bools_and_non_numbers(field, value):
    values = {"alpha1": 2.0, "alpha2": 0.5, "alpha3": 1.0, field: value}
    with pytest.raises(DomainError, match=f"{field} must be a finite number"):
        QualityParams(**values)


@pytest.mark.parametrize("field", ["r", "tau"])
@pytest.mark.parametrize("value, accepted", [
    (0, True), (1, True), (0.5, True), (np.float64(0.5), True), (np.float32(0.5), True),
    (True, False), (False, False), ("0.5", False), (None, False),
])
def test_quality_sample_accepts_real_numbers_only(field, value, accepted):
    values = {"r": 0.5, "tau": 0.5, field: value}
    if accepted:
        QualitySample(**values)
    else:
        with pytest.raises(DomainError, match="must lie in \\[0, 1\\]"):
            QualitySample(**values)


def test_derivatives_at_zero():
    d = quality_derivatives(0.0, QualityParams(1.0, 0.5, 1.0))
    assert d.du_dr == pytest.approx(-0.5)
    assert d.d2u_dr2 == pytest.approx(-0.5)
    assert d.du_dalpha1 == 1.0
    assert d.du_dalpha2 == pytest.approx(-1.0)
    assert d.du_dalpha3 == 0.0


@pytest.mark.parametrize("params", PARAM_TRIPLES)
def test_derivatives_match_finite_differences(params):
    h = 1e-6
    rng = np.random.default_rng(3)
    for r in rng.uniform(0.05, 0.95, size=25):
        d = quality_derivatives(r, params)
        fd_r = (evaluate_quality(r + h, params) - evaluate_quality(r - h, params)) / (2 * h)
        assert d.du_dr == pytest.approx(fd_r, rel=1e-6)
        h2 = 1e-4  # larger step: the second difference amplifies roundoff by 1/h^2
        fd_rr = (
            evaluate_quality(r + h2, params)
            - 2 * evaluate_quality(r, params)
            + evaluate_quality(r - h2, params)
        ) / h2**2
        assert d.d2u_dr2 == pytest.approx(fd_rr, rel=1e-4)
        for i, name in enumerate(["alpha1", "alpha2", "alpha3"]):
            vals = [params.alpha1, params.alpha2, params.alpha3]
            vals[i] += h
            up = evaluate_quality(r, QualityParams(*vals))
            vals[i] -= 2 * h
            dn = evaluate_quality(r, QualityParams(*vals))
            assert d[2 + i] == pytest.approx((up - dn) / (2 * h), rel=1e-6, abs=1e-9)


@given(valid_params, st.floats(0.0, 3.0), st.floats(0.001, 3.0))
def test_monotone_decreasing(params, r1, dr):
    assert evaluate_quality(r1, params) > evaluate_quality(r1 + dr, params)


@given(valid_params, st.floats(0.0, 3.0))
def test_concave_everywhere(params, r):
    assert quality_derivatives(r, params).d2u_dr2 < 0


def test_max_privacy_values():
    assert max_privacy(QualityParams(1.0, 1.0 - 1e-15, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert max_privacy(S1_PARAMS) == pytest.approx(1.893155362, abs=1e-8)
    assert max_privacy(S3_PARAMS) == pytest.approx(1.610723566, abs=1e-8)


@given(valid_params)
def test_quality_vanishes_at_max_privacy(params):
    assert abs(evaluate_quality(max_privacy(params), params)) <= 1e-12


def _samples_from(params, rs, noise=None, rng=None):
    taus = [evaluate_quality(r, params) for r in rs]
    if noise is not None:
        taus = [t + rng.normal(0.0, noise) for t in taus]
    return [QualitySample(r=r, tau=min(max(t, 0.0), 1.0)) for r, t in zip(rs, taus)]


@pytest.mark.parametrize("params", PARAM_TRIPLES)
def test_fit_noiseless_round_trip(params):
    rs = np.linspace(0.0, 1.0, 11)
    fit = fit_quality_curve(_samples_from(params, rs))
    assert fit.converged
    assert fit.residual_sum_squares <= 1e-12
    assert fit.params.alpha1 == pytest.approx(params.alpha1, abs=1e-6)
    assert fit.params.alpha2 == pytest.approx(params.alpha2, abs=1e-6)
    assert fit.params.alpha3 == pytest.approx(params.alpha3, abs=1e-6)


def test_fit_noisy_recovers_ceiling():
    rng = np.random.default_rng(2024)
    rs = np.linspace(0.0, 1.0, 11)
    estimates = []
    for _ in range(100):
        fit = fit_quality_curve(_samples_from(S3_PARAMS, rs, noise=0.005, rng=rng))
        estimates.append(fit.params.alpha1)
    assert abs(np.mean(estimates) - S3_PARAMS.alpha1) < 0.01


def test_fit_requires_three_samples():
    with pytest.raises(DomainError):
        fit_quality_curve([QualitySample(0.0, 0.8), QualitySample(0.5, 0.7)])


def test_fit_rejects_flat_data():
    samples = [QualitySample(r, 0.5) for r in (0.0, 0.3, 0.6, 0.9)]
    with pytest.raises(DomainError):
        fit_quality_curve(samples)


def test_fit_rejects_unsorted_privacy():
    samples = [QualitySample(0.0, 0.9), QualitySample(0.5, 0.8), QualitySample(0.5, 0.7)]
    with pytest.raises(DomainError):
        fit_quality_curve(samples)


def test_fit_reports_non_convergence():
    rs = np.linspace(0.0, 1.0, 11)
    fit = fit_quality_curve(
        _samples_from(S1_PARAMS, rs), options=FitOptions(max_iter=2, step_tol=1e-15)
    )
    assert not fit.converged
    assert fit.iterations == 2


def test_load_samples_round_trip(tmp_path):
    params = S1_PARAMS
    rows = ["r,quality"] + [
        f"{r},{evaluate_quality(r, params)}" for r in np.linspace(0.0, 1.0, 9)
    ]
    path = tmp_path / "quality.csv"
    path.write_text("\n".join(rows) + "\n")
    samples = load_samples(path)
    assert len(samples) == 9
    fit = fit_quality_curve(samples)
    assert fit.params.alpha1 == pytest.approx(params.alpha1, abs=1e-6)


def test_load_samples_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("privacy,quality\n0.0,0.8\n")
    with pytest.raises(DomainError):
        load_samples(path)


def test_load_samples_error_counts_blank_lines(tmp_path):
    # the bad row is on the file's 4th line; blank lines were once left out of the count
    path = tmp_path / "blank.csv"
    path.write_text("r,quality\n\n0.0,0.8\n0.5,x\n")
    with pytest.raises(DomainError, match=f"sample file {path} line 4: could not convert"):
        load_samples(path)


def test_load_samples_names_the_row_with_a_wrong_column_count(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("r,quality\n0.0,0.8\n0.5,0.7,1\n")
    with pytest.raises(DomainError) as err:
        load_samples(path)
    assert str(err.value) == f"sample file {path} line 3: expected two columns"


def test_alpha1_must_exceed_alpha2_as_floats():
    # 2**53 + 1 > 2.0**53 as an int, but u(0) = alpha1 - alpha2 rounds to 0, and
    # privacy_cap's loop, which u(0) > 0 ends, ran forever
    with pytest.raises(DomainError, match="alpha1 must exceed alpha2"):
        QualityParams(2**53 + 1, 2.0**53, 1.0)
    assert evaluate_quality(0.0, QualityParams(2**53 + 2, 2.0**53, 1.0)) == 2.0


def test_max_privacy_of_a_subnormal_alpha2_is_finite():
    # alpha1/alpha2 overflows to inf; log(alpha1) - log(alpha2) does not
    params = QualityParams(0.867, 5e-324, 1e100)
    assert max_privacy(params) == pytest.approx(7.44e-98, rel=1e-3)
    from privmarket.separate import privacy_cap

    assert privacy_cap(params) == 0.0


def test_quality_derivatives_past_float_range_are_a_domain_error():
    # exp(alpha3*r) overflowed as a bare OverflowError
    with pytest.raises(DomainError, match="quality derivatives overflow"):
        quality_derivatives(0.5, QualityParams(0.8, 0.1, 1e99))
