import numpy as np
import pytest

from privmarket import (
    BundleSpec,
    COMPLEMENT,
    DomainError,
    MarketSpec,
    QualityParams,
    SUBSTITUTE,
    SeparateScenario,
    ServiceSpec,
)

# rounded reference parameter triples used across the suite
S1_PARAMS = QualityParams(0.822, 0.004, 2.813)
S2_PARAMS = QualityParams(0.856, 0.013, 1.861)
S3_PARAMS = QualityParams(0.867, 0.001, 4.2)


@pytest.fixture
def market():
    return MarketSpec(m=1000)


@pytest.fixture
def s1_service():
    return ServiceSpec(quality=S1_PARAMS, n=100, c=0.2)


@pytest.fixture
def s2_service():
    return ServiceSpec(quality=S2_PARAMS, n=100, c=0.2)


@pytest.fixture
def s3_service():
    return ServiceSpec(quality=S3_PARAMS, n=100, c=0.1)


@pytest.fixture
def s1_scenario(s1_service, market):
    return SeparateScenario(service=s1_service, market=market)


@pytest.fixture
def s2_scenario(s2_service, market):
    return SeparateScenario(service=s2_service, market=market)


@pytest.fixture
def s3_scenario(s3_service, market):
    return SeparateScenario(service=s3_service, market=market)


@pytest.fixture
def sb1_bundle(s1_service, s3_service, market):
    """Complement bundle of the sentiment and activity services."""
    return BundleSpec(s1=s1_service, s2=s3_service, market=market, gamma=0.1, kind=COMPLEMENT)


@pytest.fixture
def sb2_bundle(s1_service, s2_service, market):
    """Substitute bundle of the two sentiment services."""
    return BundleSpec(s1=s1_service, s2=s2_service, market=market, gamma=-0.1, kind=SUBSTITUTE)


def random_quality(rng) -> QualityParams:
    alpha1 = rng.uniform(0.3, 1.2)
    alpha2 = rng.uniform(1e-4, 0.4 * alpha1)
    alpha3 = rng.uniform(0.5, 5.0)
    return QualityParams(alpha1, alpha2, alpha3)


def random_separate_scenario(rng) -> SeparateScenario:
    service = ServiceSpec(
        quality=random_quality(rng),
        n=int(rng.integers(1, 1001)),
        c=float(rng.uniform(0.0, 1.0)),
    )
    return SeparateScenario(service=service, market=MarketSpec(m=int(rng.integers(10, 10001))))


def random_bundle(rng, kind) -> BundleSpec:
    n = int(rng.integers(10, 501))
    s1 = ServiceSpec(quality=random_quality(rng), n=n, c=float(rng.uniform(0.01, 0.5)))
    s2 = ServiceSpec(quality=random_quality(rng), n=n, c=float(rng.uniform(0.01, 0.5)))
    gamma = float(rng.uniform(0.0, 0.5)) if kind == COMPLEMENT else float(rng.uniform(-0.45, -0.01))
    return BundleSpec(
        s1=s1, s2=s2, market=MarketSpec(m=int(rng.integers(100, 5001))), gamma=gamma, kind=kind
    )


def extreme_bundle(rng, kind):
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


def extreme_draw(seed, j):
    """Draw j of extreme_bundle's sequence from default_rng(seed), kinds alternating."""
    rng = np.random.default_rng(seed)
    for i in range(j + 1):
        try:
            b = extreme_bundle(rng, (COMPLEMENT, SUBSTITUTE)[i % 2])
        except DomainError:
            b = None
    return b


def fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad


def fd_hessian(fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = len(x)
    hess = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros_like(x)
        ei[i] = h
        hess[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros_like(x)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h**2)
    return hess


def assert_grid_agreement(profit_closed, point_closed, best, grid, value_tol, profit_fn):
    """Certify an optimizer against a grid oracle.

    Value certificate: the closed-form profit may not lose to the lattice
    maximum by more than value_tol.  Location certificate, per coordinate:
    the two argmaxes land in the same or adjacent lattice cells, or the
    coordinate is profit-equivalent at lattice resolution (swapping it to
    the grid's value moves the profit by under 2e-4 relative, the scale of
    lattice-coupling shifts on near-flat axes).
    """
    assert profit_closed >= best.value - value_tol
    flat_tol = max(value_tol, 2e-4 * (1.0 + abs(profit_closed)))
    cells = [(hi - lo) / (count - 1) for lo, hi, count in grid.axes]
    for d, (x_closed, x_grid) in enumerate(zip(point_closed, best.coords)):
        if abs(x_closed - x_grid) <= 1.5 * cells[d] + 1e-12:
            continue
        swapped = list(point_closed)
        swapped[d] = x_grid
        drop = profit_closed - profit_fn(*swapped)
        assert drop <= flat_tol, (
            f"coordinate {d}: |{x_closed} - {x_grid}| > 1.5 cells and swap drop {drop}"
        )


def hessians_close(analytic, numeric, rel=1e-3, noise_floor=1e-6):
    # entries far below the dominant scale sit at the finite-difference
    # noise level, so they get an absolute tolerance of noise_floor*scale
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    tol = np.maximum(rel * np.maximum(np.abs(analytic), np.abs(numeric)), noise_floor * scale)
    return bool(np.all(np.abs(analytic - numeric) <= tol))
