from __future__ import annotations

import json
import math

import numpy as np
import pytest

from scipy.interpolate import RectBivariateSpline

from heliumdot import cluster, potential, qsolver
from heliumdot.analytic import CubicTrap1D, cardano_minimum
from heliumdot.cluster import trap_minimum
from heliumdot.core import CONSTANTS, DomainError, FormatError
from heliumdot.potential import (
    CouplingGradientMap,
    CouplingMapSet,
    GriddedField,
    PotentialField,
    QuarticField,
    compose,
    load_coupling_maps,
    uniform_gradient_map,
)


def _dome_maps(n=21, half=1e-6):
    """Small hand-built map set: a Gaussian dome plus a linear-in-y guard."""
    x = np.linspace(-half, half, n)
    y = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(x, y)
    dome = np.exp(-(xx**2 + yy**2) / (2 * (0.4e-6) ** 2))
    tilt = 0.5 + 0.25 * yy / half
    return CouplingMapSet(x_axis=x, y_axis=y, grids={"trap": dome, "guard": tilt})


# ---------------------------------------------------------------------------
# map set validation
# ---------------------------------------------------------------------------


def test_mapset_basic_properties():
    maps = _dome_maps()
    assert maps.electrodes == ("trap", "guard")
    x0, x1, y0, y1 = maps.domain
    assert (x0, x1) == (-1e-6, 1e-6)
    assert (y0, y1) == (-1e-6, 1e-6)


def test_mapset_rejects_bad_grids():
    x = np.linspace(-1e-6, 1e-6, 5)
    good = np.full((5, 5), 0.5)
    with pytest.raises(FormatError):
        CouplingMapSet(x_axis=x, y_axis=x, grids={})
    with pytest.raises(FormatError):
        CouplingMapSet(x_axis=x, y_axis=x, grids={"a": np.full((4, 5), 0.5)})
    with pytest.raises(FormatError):
        CouplingMapSet(x_axis=x, y_axis=x, grids={"a": np.full((5, 5), 1.5)})
    bad = good.copy()
    bad[2, 2] = np.nan
    with pytest.raises(FormatError):
        CouplingMapSet(x_axis=x, y_axis=x, grids={"a": bad})
    with pytest.raises(FormatError):
        CouplingMapSet(x_axis=x[::-1], y_axis=x, grids={"a": good})


# ---------------------------------------------------------------------------
# composition and evaluation
# ---------------------------------------------------------------------------


def test_compose_rejects_unknown_electrode():
    maps = _dome_maps()
    with pytest.raises(DomainError):
        compose(maps, {"trap": 0.1, "nonsense": 1.0})


def test_compose_defaults_missing_to_zero():
    maps = _dome_maps()
    f_partial = compose(maps, {"trap": 0.3})
    f_explicit = compose(maps, {"trap": 0.3, "guard": 0.0})
    pts = np.linspace(-0.8e-6, 0.8e-6, 7)
    assert np.allclose(f_partial.evaluate(pts, pts), f_explicit.evaluate(pts, pts))


def test_bilinear_exact_on_bilinear_function():
    # phi built from a lever arm linear in x and y is reproduced exactly
    n = 9
    x = np.linspace(-1e-6, 1e-6, n)
    y = np.linspace(-1e-6, 1e-6, n)
    xx, yy = np.meshgrid(x, y)
    alpha = 0.5 + 0.2 * xx / 1e-6 + 0.1 * yy / 1e-6
    maps = CouplingMapSet(x_axis=x, y_axis=y, grids={"e": alpha})
    f = compose(maps, {"e": 2.0})
    xq = np.array([-0.33e-6, 0.0, 0.61e-6])
    yq = np.array([0.12e-6, -0.5e-6, 0.77e-6])
    expect = 2.0 * (0.5 + 0.2 * xq / 1e-6 + 0.1 * yq / 1e-6)
    assert np.allclose(f.evaluate(xq, yq), expect, rtol=1e-12)
    # broadcast queries: a column of x against a row of y
    xb = xq[:, None]
    yb = np.append(yq, 0.9e-6)[None, :]
    grid = f.evaluate(xb, yb)
    assert grid.shape == (3, 4)
    expect_grid = 2.0 * (0.5 + 0.2 * xb / 1e-6 + 0.1 * yb / 1e-6)
    assert np.allclose(grid, expect_grid, rtol=1e-12)


def test_nonfinite_field_parameters_raise():
    maps = _dome_maps()
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            compose(maps, {"trap": bad})
        with pytest.raises(DomainError):
            compose(maps, {"trap": 0.3}, e_x=bad)
        with pytest.raises(DomainError):
            QuarticField(a1x=1e-3, a1y=1e-3, e_y=bad)
        with pytest.raises(DomainError):
            QuarticField(a1x=1e-3, a1y=1e-3, a2x=bad)


def test_evaluate_outside_domain_raises():
    f = compose(_dome_maps(), {"trap": 0.3})
    with pytest.raises(DomainError):
        f.evaluate(2e-6, 0.0)


@pytest.mark.parametrize("x, y, raises", [
    ([math.nan, 0.0], [0.0, 0.0], False),  # a NaN coordinate passes
    ([math.nan, 0.0], [0.0, math.nan], False),
    ([math.nan, 2e-6], [0.0, 0.0], True),  # but not an outside point beside it
    ([math.nan, 0.0], [0.0, -2e-6], True),
    ([0.0, 0.0], [math.nan, 2e-6], True),
    ([2e-6], [math.nan], True),  # nor an outside coordinate of the same point
    ([math.nan], [-2e-6], True),
])
def test_region_check_with_nan_beside_outside_points(x, y, raises):
    f = compose(_dome_maps(), {"trap": 0.3})
    if raises:
        with pytest.raises(DomainError):
            f.evaluate(np.array(x), np.array(y))
    else:
        assert np.isnan(f.evaluate(np.array(x), np.array(y))).sum() >= 1


def test_energy_is_minus_e_phi():
    f = compose(_dome_maps(), {"trap": 0.3, "guard": 0.1}, e_y=200.0)
    x, y = 0.2e-6, -0.1e-6
    assert f.energy(x, y) == pytest.approx(-CONSTANTS.e * f.evaluate(x, y), rel=1e-12)


def test_gridded_gradient_and_hessian_match_finite_differences():
    f = compose(_dome_maps(n=101), {"trap": 0.3}, e_y=150.0)
    pt = (0.21e-6, -0.13e-6)
    h = 2.0e-9
    gx = (f.evaluate(pt[0] + h, pt[1]) - f.evaluate(pt[0] - h, pt[1])) / (2 * h)
    gy = (f.evaluate(pt[0], pt[1] + h) - f.evaluate(pt[0], pt[1] - h)) / (2 * h)
    grad, hess = f.energy_derivatives(pt)
    grad = -grad / CONSTANTS.e
    assert grad[0] == pytest.approx(gx, rel=2e-2, abs=1e-4)
    assert grad[1] == pytest.approx(gy, rel=2e-2, abs=1e-4)
    assert hess[0, 1] == hess[1, 0]


_QUERIES = {
    "many": np.random.default_rng(5).uniform(-0.7e-6, 0.7e-6, size=(6, 2)),
    "one": np.array([0.21e-6, -0.13e-6]),
    "block": np.random.default_rng(6).uniform(-0.7e-6, 0.7e-6, size=(3, 4, 2)),
}


@pytest.mark.parametrize("case", sorted(_QUERIES))
def test_gridded_derivatives_are_the_spline_bit_for_bit(case):
    # the spline fitted directly to the composed grid, evaluated one partial
    # derivative at a time, gives the very same bits as the one-pass query
    maps = _dome_maps()
    f = compose(maps, {"trap": 0.3, "guard": 0.1}, e_x=-40.0, e_y=150.0)
    w = np.zeros((maps.y_axis.size, maps.x_axis.size))
    w += 0.3 * maps.grids["trap"]
    w += 0.1 * maps.grids["guard"]
    spline = RectBivariateSpline(maps.x_axis, maps.y_axis, w.T)
    pts = _QUERIES[case]
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()

    def ev(dx, dy):
        return spline.ev(x, y, dx=dx, dy=dy).reshape(pts.shape[:-1])

    e = CONSTANTS.e
    grad = np.stack([-e * (ev(1, 0) + f.e_x), -e * (ev(0, 1) + f.e_y)], axis=-1)
    hess = -e * np.stack([np.stack([ev(2, 0), ev(1, 1)], axis=-1),
                          np.stack([ev(1, 1), ev(0, 2)], axis=-1)], axis=-2)
    both = f.energy_derivatives(pts)
    assert np.array_equal(both[0], grad)
    assert np.array_equal(both[1], hess)


def _bench_dome_maps():
    """The benchmark's dome: lever arm exp(-x^2 - (y/0.7)^2) on 81 x 81 nodes
    over +-1 um."""
    axis = np.linspace(-1.0, 1.0, 81)
    xx, yy = np.meshgrid(axis, axis)
    return CouplingMapSet(x_axis=axis * 1e-6, y_axis=axis * 1e-6,
                          grids={"trap": np.exp(-xx**2 - (yy / 0.7) ** 2)})


@pytest.mark.parametrize("case", ["dome", "quartic"])
def test_sample_grid_is_the_meshgrid_query_bit_for_bit(case):
    # sample_grid queries a row of x against a column of y, which the dome
    # evaluates in one FITPACK grid call; the bits are those of the
    # point-by-point query over the meshgrid, and an unsorted row falls
    # back to that query
    if case == "dome":
        f = compose(_bench_dome_maps(), {"trap": 0.27}, e_x=-37.0, e_y=121.0)
    else:
        f = QuarticField(a1x=2.0e-8, a1y=5.0e-8, a2x=1.3e3, a2y=3.0e3, e_x=11.0, e_y=100.0)
    for region, nx, ny in ((f.scan_region, 31, 31), ((-0.3e-6, 0.35e-6, -0.2e-6, 0.4e-6), 23, 29)):
        xs, ys, u = potential.sample_grid(f, region, nx, ny)
        xx, yy = np.meshgrid(xs, ys)
        assert u.shape == (ny, nx)
        assert np.array_equal(u, f.energy(xx, yy))
        assert np.array_equal(f.energy(xs[::-1][None, :], ys[:, None]), u[:, ::-1])


def test_each_derivative_order_is_derived_once(monkeypatch):
    # compose derives the five orders; a query derives none
    derive = RectBivariateSpline.partial_derivative
    derived = []
    monkeypatch.setattr(RectBivariateSpline, "partial_derivative",
                        lambda self, dx, dy: derived.append((dx, dy)) or derive(self, dx, dy))
    f = compose(_dome_maps(), {"trap": 0.3, "guard": 0.1})
    assert derived == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    pts = _QUERIES["many"]
    first = f.energy_derivatives(pts)
    again = f.energy_derivatives(pts)
    trap_minimum(f)
    assert len(derived) == 5
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 3), (3, 5), (2, 9), (2, 2)])
def test_map_set_under_four_nodes_per_axis_is_refused(tmp_path, nx, ny):
    # a bicubic spline needs four nodes per axis: a smaller map set is one
    # FormatError at construction and at load, before any spline is fit
    x, y = np.linspace(-1e-6, 1e-6, nx), np.linspace(-1e-6, 1e-6, ny)
    lever = np.full((ny, nx), 0.5)
    message = f"at least 4 nodes per axis .* got a {nx} x {ny} grid$"
    with pytest.raises(FormatError, match=message):
        CouplingMapSet(x_axis=x, y_axis=y, grids={"trap": lever})
    path = tmp_path / "maps.json"
    path.write_text(json.dumps({"x_axis_um": (x * 1e6).tolist(), "y_axis_um": (y * 1e6).tolist(),
                                "electrodes": {"trap": lever.tolist()}}))
    with pytest.raises(FormatError, match=message):
        load_coupling_maps(str(path))


def test_scalar_queries_return_floats():
    maps = _dome_maps()
    f = compose(maps, {"trap": 0.3}, e_y=150.0)
    assert isinstance(f.evaluate(0.2e-6, -0.1e-6), float)
    assert np.ndim(f.evaluate(0.2e-6, -0.1e-6)) == 0
    gm = uniform_gradient_map(maps.domain, 0.46e6)
    assert type(gm.value_at(0.3e-6, -0.7e-6)) is float


def test_each_derivative_query_checks_its_region_once(monkeypatch):
    f = compose(_dome_maps(), {"trap": 0.3})
    calls = []
    check = potential._require_inside
    monkeypatch.setattr(potential, "_require_inside",
                        lambda *args: calls.append(1) or check(*args))
    for pts in _QUERIES.values():
        f.energy_derivatives(pts)
    assert len(calls) == len(_QUERIES)


@pytest.mark.parametrize("case", sorted(_QUERIES))
def test_energy_derivatives_are_one_checked_spline_call(monkeypatch, case):
    f = compose(_dome_maps(), {"trap": 0.3, "guard": 0.1}, e_x=-40.0, e_y=150.0)
    pts = _QUERIES[case]
    grad, hess = f.energy_derivatives(pts)
    calls = []
    check, spline_eval = potential._require_inside, potential._spline_eval
    monkeypatch.setattr(potential, "_require_inside",
                        lambda *args: calls.append("check") or check(*args))
    monkeypatch.setattr(potential, "_spline_eval",
                        lambda *args: calls.append("spline") or spline_eval(*args))
    both = f.energy_derivatives(pts)
    assert calls == ["spline", "check"]
    assert np.array_equal(both[0], grad) and np.array_equal(both[1], hess)


def test_regions_are_computed_once():
    maps = _dome_maps()
    f = compose(maps, {"trap": 0.3})
    assert maps.domain is maps.domain
    assert f.scan_region is f.scan_region
    dx = maps.x_axis[1] - maps.x_axis[0]
    assert f.scan_region == pytest.approx(
        (maps.domain[0] + dx, maps.domain[1] - dx, maps.domain[2] + dx, maps.domain[3] - dx))


def test_gradient_stencil_near_edge_raises():
    f = compose(_dome_maps(), {"trap": 0.3})
    with pytest.raises(DomainError):
        f.energy_derivatives((1e-6, 0.0))


# ---------------------------------------------------------------------------
# analytic surrogate
# ---------------------------------------------------------------------------


def test_analytic_energy_polynomial():
    f = QuarticField(a1x=2.0e-8, a1y=5.0e-8, a2y=3.0e3, e_y=100.0)
    y = 40e-9
    expect = 5.0e-8 * y**2 + 3.0e3 * y**4 - CONSTANTS.e * 100.0 * y
    assert float(f.energy(0.0, y)) == pytest.approx(expect, rel=1e-12)


def test_analytic_derivatives_closed_form():
    a1x, a1y, a2x, a2y = 2.0e-8, 5.0e-8, 1.0e3, 3.0e3
    f = QuarticField(a1x=a1x, a1y=a1y, a2x=a2x, a2y=a2y, e_y=100.0)
    x, y = 30e-9, -20e-9
    g, hess = f.energy_derivatives((x, y))
    assert g[0] == pytest.approx(2 * a1x * x + 4 * a2x * x**3, rel=1e-12)
    assert g[1] == pytest.approx(
        2 * a1y * y + 4 * a2y * y**3 - CONSTANTS.e * 100.0, rel=1e-12
    )
    assert hess[0, 0] == pytest.approx(2 * a1x + 12 * a2x * x**2, rel=1e-12)
    assert hess[1, 1] == pytest.approx(2 * a1y + 12 * a2y * y**2, rel=1e-12)
    assert hess[0, 1] == 0.0


# ---------------------------------------------------------------------------
# field protocol
# ---------------------------------------------------------------------------

# (field, its known minimum): a gridded dome centred on the origin, and a
# tilted harmonic-in-y quartic whose minimum sits at y = e E_y / (2 a1y)
_PROTOCOL_CASES = {
    "gridded": (lambda: compose(_dome_maps(n=101), {"trap": 0.3}), (0.0, 0.0)),
    "quartic": (
        lambda: QuarticField(a1x=2.0e-8, a1y=5.0e-8, a2x=1.0e3, e_y=2.0e5),
        (0.0, CONSTANTS.e * 2.0e5 / (2 * 5.0e-8)),
    ),
}


@pytest.mark.parametrize("case", sorted(_PROTOCOL_CASES))
def test_field_protocol(case):
    make, minimum = _PROTOCOL_CASES[case]
    f = make()
    pts = np.random.default_rng(3).uniform(-0.5e-6, 0.5e-6, size=(7, 2))
    many, hess_many = f.energy_derivatives(pts)
    assert many.shape == (7, 2)
    assert hess_many.shape == (7, 2, 2)
    for p, grad, hess in zip(pts, many, hess_many):
        one = f.energy_derivatives(p)
        assert np.array_equal(grad, one[0]) and np.array_equal(hess, one[1])
    # a step far below one cell, so the difference quotient is the derivative
    h = 1e-11
    fd = np.column_stack([
        (f.energy(pts[:, 0] + h, pts[:, 1]) - f.energy(pts[:, 0] - h, pts[:, 1])) / (2 * h),
        (f.energy(pts[:, 0], pts[:, 1] + h) - f.energy(pts[:, 0], pts[:, 1] - h)) / (2 * h),
    ])
    np.testing.assert_allclose(many, fd, rtol=1e-4, atol=1e-9 * np.abs(fd).max())
    for p, hess in zip(pts, hess_many):
        assert np.array_equal(hess, hess.T)
        fd_hess = np.column_stack([
            (f.energy_derivatives(p + step)[0] - f.energy_derivatives(p - step)[0]) / (2 * h)
            for step in (np.array([h, 0.0]), np.array([0.0, h]))
        ])
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-4, atol=1e-9 * np.abs(fd_hess).max())
    found, hess = trap_minimum(f)
    assert found == pytest.approx(minimum, abs=1e-15)
    assert np.array_equal(hess, f.energy_derivatives(found)[1])


# ---------------------------------------------------------------------------
# trap minimum
# ---------------------------------------------------------------------------


class _CountingQuartic(QuarticField):
    """QuarticField that counts the points its energy is evaluated at and
    its derivative queries."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "counts", {"points": 0, "derivatives": 0, "nan_gradients": 0})

    def _base(self, x, y):
        self.counts["points"] += np.broadcast(x, y).size
        return super()._base(x, y)

    def energy_derivatives(self, points):
        self.counts["derivatives"] += 1
        return super().energy_derivatives(points)


class _NanGradientQuartic(_CountingQuartic):
    """A NaN gradient at every point, with the true Hessian."""

    def energy_derivatives(self, points):
        grad, hess = super().energy_derivatives(points)
        self.counts["nan_gradients"] += 1
        return np.full_like(grad, math.nan), hess


def test_trap_minimum_cost_is_a_coarse_scan_and_a_newton_budget(monkeypatch):
    """An off-node quartic minimum: the search costs a 31 x 31 scan, then per
    iteration of the one-electron trust-region descent at most one trial
    point and one derivative query (and one query at its start), and a
    final Newton step of one trial point and two derivative queries, where
    a 121 x 121 scan would evaluate 14641 points."""
    field = _CountingQuartic(a1x=1e-12, a2x=2750.0, a1y=2e-12, a2y=4000.0, e_x=300.0,
                             e_y=-250.0)
    iterations = []
    steihaug = cluster._steihaug
    monkeypatch.setattr(cluster, "_steihaug",
                        lambda *args: iterations.append(1) or steihaug(*args))
    trap_minimum(field)
    n = len(iterations)
    assert 1 <= n <= 8
    assert field.counts["points"] <= 31**2 + 1 + n + 1
    assert field.counts["derivatives"] <= n + 2


@pytest.mark.parametrize("cls, params", [
    (_CountingQuartic, {"a1x": -1e-9, "a1y": 2e-9}),  # saddle: the scan ends on the x edge
    (_CountingQuartic, {}),  # flat: a zero Hessian
    (_CountingQuartic, {"a2x": 3e12, "a1y": 2e-9}),  # flat in x at the minimum node
    (_NanGradientQuartic, {"a1x": 1e-9, "a1y": 2e-9, "e_x": 33.0}),  # a NaN step
], ids=["saddle", "flat", "quartic-x", "nan-step"])
def test_trap_minimum_takes_no_step_off_a_minimum(cls, params):
    """Without a descent step that lowers U, a positive-definite Hessian or
    a finite Newton step, the center stays on the scanned node, whose U the
    scan itself gave: no point past the descent's start is evaluated.  The
    window built on it stays inside the scan region."""
    field = cls(**params)
    center, hess = trap_minimum(field)
    assert field.counts["derivatives"] <= 2  # the descent's first, if it runs, and the center's
    # the NaN fake answers both: the descent drops its start and the center takes no step
    assert field.counts["nan_gradients"] == (2 if cls is _NanGradientQuartic else 0)
    assert field.counts["points"] == 31**2 + 1  # the scan and the descent's start
    r0, r1, s0, s1 = field.scan_region
    nodes = np.linspace(r0, r1, 31), np.linspace(s0, s1, 31)
    assert center[0] in nodes[0] and center[1] in nodes[1]
    assert np.array_equal(hess, field.energy_derivatives(center)[1])
    x0, x1, y0, y1 = qsolver.auto_window(field)
    assert r0 <= x0 < x1 <= r1 and s0 <= y0 < y1 <= s1


def test_trap_minimum_descends_off_a_node_of_singular_hessian():
    """Quartic in both axes, with a field along y: the scanned node x = 0 is
    flat in x, so its Hessian is singular and no Newton step can start
    there.  The descent still reaches the closed-form y minimum, and x stays
    on the node, where it is exact."""
    a2, e_y = 3e12, 50.0
    field = QuarticField(a2x=a2, a2y=a2, e_y=e_y)
    y_min = cardano_minimum(CubicTrap1D(a1=0.0, a2=a2, e_y=e_y)).y0
    center, hess = trap_minimum(field)
    assert center[0] == 0.0
    length = math.sqrt(CONSTANTS.hbar / math.sqrt(CONSTANTS.m_e * hess[1, 1]))
    assert abs(center[1] - y_min) < 1e-9 * length


def test_trap_minimum_backtracks_a_step_that_raises_u():
    """Harmonic at 7 GHz in x with the minimum between nodes, and a stiff
    quartic in y: the full Newton step from the scanned node overshoots the
    y minimum, so U rises, yet the trust-region descent lands the center,
    the window's too, on the closed-form minimum to 1e-9 of a zero-point
    length.  Kept on the node, it would be 67 nm off."""
    a1x, a1y, a2y, e_y = 0.5 * CONSTANTS.m_e * (7.0 * 2e9 * math.pi) ** 2, 1e-9, 4e12, 211.0
    x_min = 0.3137e-6
    field = _CountingQuartic(a1x=a1x, a1y=a1y, a2y=a2y, e_x=2 * a1x * x_min / CONSTANTS.e,
                             e_y=e_y)
    y_min = cardano_minimum(CubicTrap1D(a1=a1y, a2=a2y, e_y=e_y)).y0
    xs, ys, u = potential.sample_grid(field, field.scan_region, 31)
    iy, ix = np.unravel_index(int(np.argmin(u)), u.shape)
    node = np.array([xs[ix], ys[iy]])
    grad, hess = field.energy_derivatives(node)
    full = node - np.linalg.solve(hess, grad)
    assert field.energy(*full) > u[iy, ix]
    center, hess = trap_minimum(field)
    x0, x1, y0, y1 = qsolver.auto_window(field)
    lengths = np.sqrt(CONSTANTS.hbar / np.sqrt(CONSTANTS.m_e * np.diag(hess)))
    for found in (center, ((x0 + x1) / 2, (y0 + y1) / 2)):
        assert np.all(np.abs(np.subtract(found, (x_min, y_min))) < 1e-9 * lengths)


def _off_by(field, a1y, a2y, e_y, x_min):
    """Largest distance of trap_minimum's center from the closed-form minimum
    of a harmonic-x, quartic-y QuarticField, in zero-point lengths per axis."""
    y_min = cardano_minimum(CubicTrap1D(a1=a1y, a2=a2y, e_y=e_y)).y0
    curvs = np.array([2 * field.a1x, 2 * a1y + 12 * a2y * y_min**2])
    lengths = np.sqrt(CONSTANTS.hbar / np.sqrt(CONSTANTS.m_e * curvs))
    center, _ = trap_minimum(field)
    return float(np.max(np.abs(center - (x_min, y_min)) / lengths))


def test_trap_minimum_centers_near_floor_traps():
    """Quartic y traps near the frequency floor, a 4-9 GHz harmonic x mode
    with its minimum anywhere within +-1 um: every center lies within 1e-3
    zero-point lengths of the closed form, where the scan node's Hessian is
    often not positive definite and a full Newton step overshoots."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        a1y = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-16, -9)
        a2y, e_y = 10 ** rng.uniform(2, 12), 10 ** rng.uniform(0, 3.5)
        a1x = 0.5 * CONSTANTS.m_e * (2 * math.pi * rng.uniform(4e9, 9e9)) ** 2
        x_min = rng.uniform(-1e-6, 1e-6)
        field = QuarticField(a1x=a1x, a1y=a1y, a2y=a2y, e_x=2 * a1x * x_min / CONSTANTS.e,
                             e_y=e_y)
        worst = max(worst, _off_by(field, a1y, a2y, e_y, x_min))
    assert worst < 1e-3


@pytest.mark.parametrize("a1y, a2y, e_y, x_min", [
    (1e-10, 1e12, 150.0, -0.45e-6),
    (1e-9, 4e12, 211.0, 0.267e-6),
], ids=["overshoot", "offset"])
def test_trap_minimum_centers_a_stiff_y_quartic(a1y, a2y, e_y, x_min):
    """A 7 GHz x mode and a y quartic that dominates at the minimum.  In the
    first, the y curvature at the scanned node is 2000 times below the one
    at the minimum, so the full Newton step from the node overshoots
    660-fold.  In the second, the x minimum is a node where -e E_x x makes
    |U| large, so U resolves a step only to a few ulp of that offset.  Both
    centers land within 1e-9 zero-point lengths of the closed form."""
    a1x = 0.5 * CONSTANTS.m_e * (7.0 * 2e9 * math.pi) ** 2
    field = QuarticField(a1x=a1x, a1y=a1y, a2y=a2y, e_x=2 * a1x * x_min / CONSTANTS.e,
                         e_y=e_y)
    assert _off_by(field, a1y, a2y, e_y, x_min) < 1e-9


def test_evaluate_defined_only_on_base_class():
    # one evaluate for every field, so wrapping it counts every evaluation
    assert "evaluate" in PotentialField.__dict__
    for cls in (GriddedField, QuarticField):
        assert "evaluate" not in cls.__dict__


# ---------------------------------------------------------------------------
# gradient maps
# ---------------------------------------------------------------------------


def test_uniform_gradient_map_constant_everywhere():
    gm = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.46e6)
    assert gm.value_at(0.3e-6, -0.7e-6) == pytest.approx(0.46e6)


def test_gradient_map_fits_its_spline_on_first_read(tmp_path):
    # sweep freq loads the gradient map but never reads it
    gm = load_coupling_maps(_write_maps_json(tmp_path / "maps.json")).resonator_gradient
    assert "_spline" not in vars(gm)
    gm.value_at(0.0, 0.0)
    assert "_spline" in vars(gm)


def test_gradient_map_validation():
    x = np.linspace(-1e-6, 1e-6, 4)
    with pytest.raises(FormatError, match="gradient map"):
        CouplingGradientMap(x, x, np.zeros((3, 4)))
    for value in (np.inf, np.nan):
        bad = np.zeros((4, 4))
        bad[0, 0] = value
        with pytest.raises(FormatError, match="gradient map"):
            CouplingGradientMap(x, x, bad)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def _write_maps_json(path, extra=None, drop=None):
    payload = {
        "x_axis_um": [-1.0, 0.0, 1.0, 2.0],
        "y_axis_um": [-1.0, 0.0, 1.0, 2.0],
        "electrodes": {"trap": [[0.1, 0.2, 0.1, 0.1], [0.2, 0.9, 0.2, 0.1],
                                [0.1, 0.2, 0.1, 0.1], [0.1, 0.1, 0.1, 0.1]]},
        "resonator_diff_grad_per_um": [[0.3] * 4] * 4,
        "metadata": {"source": "unit test"},
    }
    payload.update(extra or {})
    for key in drop or []:
        payload.pop(key)
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_coupling_maps_units(tmp_path):
    maps = load_coupling_maps(_write_maps_json(tmp_path / "maps.json"))
    assert maps.x_axis[0] == pytest.approx(-1e-6)
    assert maps.grids["trap"][1, 1] == 0.9
    # per-um gradient becomes per-m
    assert maps.resonator_gradient.value_at(0.0, 0.0) == pytest.approx(0.3e6)


def test_load_coupling_maps_errors(tmp_path):
    with pytest.raises(FormatError):
        load_coupling_maps(_write_maps_json(tmp_path / "a.json", drop=["electrodes"]))
    with pytest.raises(FormatError):
        load_coupling_maps(_write_maps_json(tmp_path / "b.json", extra={"electrodes": {}}))
    bad = tmp_path / "c.json"
    bad.write_text("{oops")
    with pytest.raises(FormatError):
        load_coupling_maps(str(bad))


_AXES = '"x_axis_um": [0, 1, 2, 3], "y_axis_um": [0, 1, 2, 3]'
_ROWS = "[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]"  # three rows of a 4 x 4 grid
# (file text, the start of the error message): each case reaches its own check
_MALFORMED_MAPS = {
    "top-level-number": ("3", "coupling maps .*: top level must be an object"),
    "axis-text": ('{"x_axis_um": ["a", 1, 2, 3], "y_axis_um": [0, 1, 2, 3], '
                  '"electrodes": {"trap": [[0, 0, 0, 0], ' + _ROWS + ']}}', "x_axis_um"),
    "cell-text": ('{' + _AXES + ', "electrodes": {"trap": [[0, "x", 0, 0], ' + _ROWS + ']}}',
                  "electrode 'trap'"),
    "ragged-grid": ('{' + _AXES + ', "electrodes": {"trap": [[0], ' + _ROWS + ']}}',
                    "electrode 'trap'"),
    "gradient-object": ('{' + _AXES + ', "electrodes": {"trap": [[0, 0, 0, 0], ' + _ROWS
                        + ']}, "resonator_diff_grad_per_um": [[0, {}, 0, 0], ' + _ROWS + ']}',
                        "gradient map"),
}


_BEYOND_FLOAT = 10**400  # an int that json reads exactly and no float holds


@pytest.mark.parametrize("key, name", [
    ("x_axis_um", "x_axis_um"),
    ("electrodes", "electrode 'trap'"),
    ("resonator_diff_grad_per_um", "gradient map"),
])
def test_load_coupling_maps_names_an_int_beyond_float_range(tmp_path, key, name):
    # a FormatError naming the array, not numpy's bare OverflowError
    big = {
        "x_axis_um": [-1.0, 0.0, 1.0, _BEYOND_FLOAT],
        "electrodes": {"trap": [[0.1] * 4, [0.2, _BEYOND_FLOAT, 0.2, 0.1], [0.1] * 4, [0.1] * 4]},
        "resonator_diff_grad_per_um": [[0.3] * 4, [0.3, _BEYOND_FLOAT, 0.3, 0.3], [0.3] * 4,
                                       [0.3] * 4],
    }
    path = _write_maps_json(tmp_path / "maps.json", extra={key: big[key]})
    with pytest.raises(FormatError, match=f"^{name} must be a rectangular array of numbers$"):
        load_coupling_maps(path)


@pytest.mark.parametrize("case", sorted(_MALFORMED_MAPS))
def test_load_coupling_maps_rejects_malformed_content(tmp_path, case):
    # valid JSON that is not a map set: a FormatError, not a TypeError or a
    # bare ValueError from the float conversion
    text, message = _MALFORMED_MAPS[case]
    path = tmp_path / "maps.json"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{message}"):
        load_coupling_maps(str(path))
