"""Quality-privacy curve: evaluation, derivatives, and least-squares fitting.

Service quality is modeled as a strictly decreasing, strictly concave
exponential curve of the privacy level r:

    u(r) = alpha1 - alpha2 * exp(alpha3 * r)

alpha1 is the quality ceiling, alpha2 the decay scale, and alpha3 the
per-unit-privacy decay rate.  The curve parameters are either supplied
directly or fitted to (r, quality) measurements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, _as_input, _extremes, _is_finite, _read_text

__all__ = [
    "QualityParams",
    "QualitySample",
    "QualityDerivatives",
    "FitOptions",
    "FitResult",
    "evaluate_quality",
    "quality_derivatives",
    "max_privacy",
    "fit_quality_curve",
    "load_samples",
]

# ceiling on the curve's alpha1 and alpha3 and on wages and contingencies:
# the closed forms raise these to small powers and multiply them by the
# market sizes, and the results must stay finite
MAX_MAGNITUDE = 1e100


def _check_curve_parameter(name, v):
    """A curve parameter's own rule: finite and > 0, alpha1 and alpha3 at most MAX_MAGNITUDE."""
    if not _is_finite(v, (int, float)):
        raise DomainError(f"{name} must be a finite number, got {v!r}")
    if v <= 0:
        raise DomainError(f"{name} must be positive, got {v}")
    if name != "alpha2" and v > MAX_MAGNITUDE:
        raise DomainError(f"{name} must lie in (0, {MAX_MAGNITUDE:g}], got {v}")


@dataclass(frozen=True)
class QualityParams:
    """Parameters of the quality curve u(r) = alpha1 - alpha2*exp(alpha3*r).

    All three parameters must be positive and alpha1 > alpha2 so that the
    zero-privacy quality u(0) is positive; alpha1 and alpha3 are at most
    MAX_MAGNITUDE.
    """

    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3"):
            _check_curve_parameter(name, getattr(self, name))
        if float(self.alpha1) <= float(self.alpha2):  # u(0) is computed in floats
            raise DomainError(
                f"alpha1 must exceed alpha2 so u(0) > 0, got "
                f"alpha1={self.alpha1}, alpha2={self.alpha2}"
            )


@dataclass(frozen=True)
class QualitySample:
    """One (privacy level, measured quality) observation, both in [0, 1]."""

    r: float
    tau: float

    def __post_init__(self):
        if not (_is_finite(self.r) and 0.0 <= self.r <= 1.0):
            raise DomainError(f"sample privacy level must lie in [0, 1], got {self.r}")
        if not (_is_finite(self.tau) and 0.0 <= self.tau <= 1.0):
            raise DomainError(f"sample quality must lie in [0, 1], got {self.tau}")


class QualityDerivatives(NamedTuple):
    du_dr: float
    d2u_dr2: float
    du_dalpha1: float
    du_dalpha2: float
    du_dalpha3: float


@dataclass(frozen=True)
class FitOptions:
    """Controls for the damped Gauss-Newton fit."""

    damping_init: float = 1e-3
    damping_factor: float = 10.0
    step_tol: float = 1e-10
    max_iter: int = 200


@dataclass(frozen=True)
class FitResult:
    params: QualityParams
    residual_sum_squares: float
    iterations: int
    converged: bool


def _check_privacy_arg(r):
    lo, hi = _extremes(r)
    if not (-math.inf < lo and hi < math.inf):
        raise DomainError("privacy level must be finite")
    if lo < 0:
        raise DomainError("privacy level must be nonnegative")


def _quality(r, params: QualityParams):
    """u(r) without checks, for a float or an array r.

    np.exp on floats too: math.exp differs in the last bit, which can flip a Monte-Carlo buy.
    """
    return params.alpha1 - params.alpha2 * np.exp(params.alpha3 * r)


def evaluate_quality(r, params: QualityParams):
    """u(r) = alpha1 - alpha2*exp(alpha3*r); accepts scalars or arrays.

    The raw value is returned even when negative (beyond the validity
    domain); callers that need u > 0 enforce it themselves.
    """
    r = _as_input(r)
    _check_privacy_arg(r)
    with np.errstate(over="ignore"):  # exp(alpha3*r) past float range gives u = -inf
        out = _quality(r, params)
    return float(out) if isinstance(r, float) else out


def quality_derivatives(r: float, params: QualityParams) -> QualityDerivatives:
    """First/second derivative in r plus the gradient in the parameters."""
    _check_privacy_arg(r)
    rr = float(_as_input(r))
    try:
        e = math.exp(params.alpha3 * rr)
    except OverflowError:
        raise DomainError(f"quality derivatives overflow at r={rr}: exp(alpha3*r) leaves "
                          "float range") from None
    return QualityDerivatives(
        du_dr=-params.alpha2 * params.alpha3 * e,
        d2u_dr2=-params.alpha2 * params.alpha3**2 * e,
        du_dalpha1=1.0,
        du_dalpha2=-e,
        du_dalpha3=-params.alpha2 * rr * e,
    )


def max_privacy(params: QualityParams) -> float:
    """Privacy level at which the quality curve crosses zero."""
    ratio = params.alpha1 / params.alpha2
    if ratio == math.inf:  # a subnormal alpha2; the logs of the two parts stay finite
        return (math.log(params.alpha1) - math.log(params.alpha2)) / params.alpha3
    return math.log(ratio) / params.alpha3


def _validate_samples(samples: Sequence[QualitySample]) -> tuple[np.ndarray, np.ndarray]:
    if len(samples) < 3:
        raise DomainError(
            f"need at least 3 samples to identify 3 curve parameters, got {len(samples)}"
        )
    r = np.array([s.r for s in samples], dtype=float)
    tau = np.array([s.tau for s in samples], dtype=float)
    if np.any(np.diff(r) <= 0):
        raise DomainError("sample privacy levels must be strictly increasing")
    if tau.max() - tau.min() < 1e-12:
        raise DomainError("all quality values are equal; decay parameters unidentifiable")
    return r, tau


def _initial_guess(r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    a1 = tau.max() + 0.01
    a2 = max(tau.max() - tau.min(), 1e-4)
    # log-linear regression of (a1 - tau) against r gives the decay rate
    z = np.log(np.maximum(a1 - tau, 1e-12))
    slope = np.polyfit(r, z, 1)[0]
    a3 = max(slope, 1e-6)
    return np.array([a1, a2, a3])


def _rss(theta: np.ndarray, r: np.ndarray, tau: np.ndarray) -> float:
    resid = theta[0] - theta[1] * np.exp(theta[2] * r) - tau
    return float(resid @ resid)


def _theta_valid(theta: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(theta)) and theta[0] > theta[1] > 0 and theta[2] > 0)


def fit_quality_curve(samples: Sequence[QualitySample], options: FitOptions | None = None) -> FitResult:
    """Fit the quality curve by damped Gauss-Newton on the squared residuals.

    Minimizes sum_i (u(r_i) - tau_i)^2 using the analytic parameter
    gradient.  Damping is multiplicative: increased on a rejected step,
    decreased on an accepted one.  Returns the best parameters found with
    converged=False if the step norm never drops below tolerance.
    """
    opts = options or FitOptions()
    r, tau = _validate_samples(samples)
    theta = _initial_guess(r, tau)
    rss = _rss(theta, r, tau)
    lam = opts.damping_init
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        e = np.exp(theta[2] * r)
        resid = theta[0] - theta[1] * e - tau
        jac = np.column_stack([np.ones_like(r), -e, -theta[1] * r * e])
        g = jac.T @ resid
        a = jac.T @ jac
        try:
            step = np.linalg.solve(a + lam * np.eye(3), -g)
        except np.linalg.LinAlgError:
            lam *= opts.damping_factor
            continue
        cand = theta + step
        if _theta_valid(cand) and (cand_rss := _rss(cand, r, tau)) <= rss:
            theta, rss = cand, cand_rss
            lam /= opts.damping_factor
            if np.max(np.abs(step)) < opts.step_tol:
                converged = True
                break
        else:
            lam *= opts.damping_factor
            if lam > 1e15:
                break
    return FitResult(
        params=QualityParams(*theta),
        residual_sum_squares=rss,
        iterations=iterations,
        converged=converged,
    )


def load_samples(path) -> list[QualitySample]:
    """Read samples from two-column CSV text with header ``r,quality``.

    Blank lines are skipped; an error names the row's line in the file.
    """
    lines = [(i, ln.strip()) for i, ln in
             enumerate(_read_text(path, "sample file").split("\n"), start=1) if ln.strip()]
    if not lines or lines[0][1].replace(" ", "") != "r,quality":
        raise DomainError(f"sample file {path} must start with header 'r,quality'")
    samples = []
    for i, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 2:
            raise DomainError(f"sample file {path} line {i}: expected two columns")
        try:
            samples.append(QualitySample(r=float(cells[0]), tau=float(cells[1])))
        except ValueError as exc:
            raise DomainError(f"sample file {path} line {i}: {exc}") from exc
    return samples
