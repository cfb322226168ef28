from __future__ import annotations

import json
import math

import numpy as np
import pytest

from heliumdot.core import CONSTANTS, DomainError, FormatError
from heliumdot.potential import (
    CouplingGradientMap,
    CouplingMapSet,
    GriddedField,
    PotentialField,
    QuarticField,
    compose,
    edge_ring,
    load_coupling_maps,
    scan_minimum,
    trap_depth,
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


def test_evaluate_outside_domain_raises():
    f = compose(_dome_maps(), {"trap": 0.3})
    with pytest.raises(DomainError):
        f.evaluate(2e-6, 0.0)


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
    grad = -f.energy_gradient(pt) / CONSTANTS.e
    assert grad[0] == pytest.approx(gx, rel=2e-2, abs=1e-4)
    assert grad[1] == pytest.approx(gy, rel=2e-2, abs=1e-4)
    hess = f.energy_hessian(pt)
    assert hess[0, 1] == hess[1, 0]


def test_gradient_stencil_near_edge_raises():
    f = compose(_dome_maps(), {"trap": 0.3})
    with pytest.raises(DomainError):
        f.energy_gradient((1e-6, 0.0))


# ---------------------------------------------------------------------------
# analytic surrogate
# ---------------------------------------------------------------------------


def test_analytic_energy_polynomial():
    f = QuarticField(a1x=2.0e-8, a1y=5.0e-8, a2y=3.0e3, e_y=100.0)
    y = 40e-9
    expect = 5.0e-8 * y**2 + 3.0e3 * y**4 - CONSTANTS.e * 100.0 * y
    assert float(f.energy(0.0, y)) == pytest.approx(expect, rel=1e-12)
    assert f.domain is None


def test_analytic_derivatives_closed_form():
    a1x, a1y, a2x, a2y = 2.0e-8, 5.0e-8, 1.0e3, 3.0e3
    f = QuarticField(a1x=a1x, a1y=a1y, a2x=a2x, a2y=a2y, e_y=100.0)
    x, y = 30e-9, -20e-9
    g = f.energy_gradient((x, y))
    assert g[0] == pytest.approx(2 * a1x * x + 4 * a2x * x**3, rel=1e-12)
    assert g[1] == pytest.approx(
        2 * a1y * y + 4 * a2y * y**3 - CONSTANTS.e * 100.0, rel=1e-12
    )
    hess = f.energy_hessian((x, y))
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
    many = f.energy_gradient(pts)
    assert many.shape == (7, 2)
    assert np.array_equal(many, np.array([f.energy_gradient(p) for p in pts]))
    # one cell of the 101-node dome: the gridded stencil's own step
    h = 2e-8
    fd = np.column_stack([
        (f.energy(pts[:, 0] + h, pts[:, 1]) - f.energy(pts[:, 0] - h, pts[:, 1])) / (2 * h),
        (f.energy(pts[:, 0], pts[:, 1] + h) - f.energy(pts[:, 0], pts[:, 1] - h)) / (2 * h),
    ])
    np.testing.assert_allclose(many, fd, rtol=1e-4, atol=1e-9 * np.abs(fd).max())
    for p in pts:
        hess = f.energy_hessian(p)
        assert np.array_equal(hess, hess.T)
    region = f.scan_region
    samples = 81
    found = scan_minimum(f, region, samples)
    steps = ((region[1] - region[0]) / (samples - 1), (region[3] - region[2]) / (samples - 1))
    assert abs(found[0] - minimum[0]) <= steps[0]
    assert abs(found[1] - minimum[1]) <= steps[1]


def test_edge_ring_marks_outer_cells():
    ring = edge_ring((4, 5))
    assert ring.sum() == 14
    assert not ring[1:-1, 1:-1].any()


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
    assert gm.coupling_length(0.0, 0.0) == pytest.approx(1.0 / 0.46e6, rel=1e-12)


def test_coupling_length_zero_gradient_raises():
    gm = uniform_gradient_map((-1e-6, 1e-6, -1e-6, 1e-6), 0.0)
    with pytest.raises(DomainError):
        gm.coupling_length(0.0, 0.0)


def test_gradient_map_validation():
    x = np.linspace(-1e-6, 1e-6, 4)
    with pytest.raises(FormatError):
        CouplingGradientMap(x, x, np.zeros((3, 4)))
    bad = np.zeros((4, 4))
    bad[0, 0] = np.inf
    with pytest.raises(FormatError):
        CouplingGradientMap(x, x, bad)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def _write_maps_json(path, extra=None, drop=None):
    payload = {
        "x_axis_um": [-1.0, 0.0, 1.0],
        "y_axis_um": [-1.0, 0.0, 1.0],
        "electrodes": {"trap": [[0.1, 0.2, 0.1], [0.2, 0.9, 0.2], [0.1, 0.2, 0.1]]},
        "resonator_diff_grad_per_um": [[0.3] * 3] * 3,
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
    assert maps.metadata["source"] == "unit test"
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


# ---------------------------------------------------------------------------
# trap depth
# ---------------------------------------------------------------------------


def test_trap_depth_harmonic_bowl():
    k = 1.0e-8  # J/m^2
    f = QuarticField(a1x=k, a1y=k)
    w = 1e-6
    result = trap_depth(f, (-w, w, -w, w), samples=201)
    assert not result.no_trap
    # boundary minimum sits at an edge midpoint, U = k w^2
    assert result.depth_j == pytest.approx(k * w**2, rel=1e-3)
    assert result.depth_ghz == pytest.approx(k * w**2 / CONSTANTS.h / 1e9, rel=1e-3)
    assert abs(result.minimum_xy[0]) < 2 * w / 200
    assert abs(result.minimum_xy[1]) < 2 * w / 200


def test_trap_depth_no_confinement():
    f = QuarticField(a1x=1.0e-8, a1y=1.0e-8, e_y=5000.0)
    # strong tilt pushes the minimum to the boundary of a small region
    result = trap_depth(f, (-1e-8, 1e-8, -1e-8, 1e-8), samples=51)
    assert result.no_trap
    assert result.depth_j == 0.0


def test_trap_depth_region_validation():
    f = QuarticField(a1x=1e-8, a1y=1e-8)
    with pytest.raises(DomainError):
        trap_depth(f, (1e-6, -1e-6, -1e-6, 1e-6))
