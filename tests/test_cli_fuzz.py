"""Property tests for the CLI contract: every run of ``cli.main`` ends either
in exit 0 with strictly valid JSON and its output file written, or in exit 1
with one JSON error line on stderr; never a traceback or a warning.

Inputs are malformed on purpose: trace, two-tone, config, sidecar and
coupling-map files with broken rows, non-numeric or non-finite values and
invalid JSON, and flags outside their domain (negative, zero, NaN, infinite,
huge, non-numeric).  The eigensolver and the sweeps run on tiny grids and at
most two sweep points, so each example stays fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from heliumdot.cli import main

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

# flag values: plain numbers, the edges of the float range, and junk
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 2000).map(str),
    st.sampled_from(["0", "-1", "1e308", "1e-308", "nan", "inf", "-inf", "abc", ""]),
)
# closed forms are plain float algebra: keep their finite values within
# +-1e100, where no intermediate leaves the float range
CALC_NUMBER = st.one_of(
    st.floats(-1e100, 1e100).map(repr),
    st.integers(-5, 2000).map(str),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "abc", ""]),
)
FINITE = st.floats(-1e12, 1e12, allow_nan=False)
CELL = st.one_of(FINITE.map(repr), st.sampled_from(["nan", "inf", "-inf", "1e308", "x", ""]))

CALC = {
    "g": ["--coupling-length-nm", "--f-res-ghz"],
    "cardano": ["--a1", "--a2", "--ey"],
    "purcell-res": ["--g-mhz", "--kappa-mhz", "--delta-ghz"],
    "purcell-bias": ["--f-el-ghz", "--dalpha-dy-per-um", "--lf-nh", "--cf-pf"],
    "spin": ["--g-c-mhz", "--dbz-dx-t-per-um", "--ax-nm", "--delta-cs-ghz"],
    "depression": ["--height-um", "--width-um"],
    "cooperativity": ["--g-mhz", "--kappa-mhz", "--gamma2-mhz"],
    "dispersive": ["--f-res-ghz", "--f-peak-ghz", "--g-mhz"],
}
# the closed forms that use the physical constants, and so take --config
CALC_CONFIG = {"g", "cardano", "purcell-bias", "spin", "depression"}


def _strict(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


# the errors a failing run may not name: float trouble inside a fit is the
# fit's to handle
ARITHMETIC = frozenset({"ArithmeticError", "FloatingPointError", "OverflowError",
                        "ZeroDivisionError"})


def _run(argv: list, workdir: str, out_path: str | None = None,
         forbidden: frozenset = frozenset()) -> None:
    """Run one command and check the exit contract; ``out_path`` is the file a
    successful run must write, ``forbidden`` the error names a failing run may
    not give."""
    out, err = io.StringIO(), io.StringIO()
    before = set(os.listdir(workdir))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        payload = _strict(lines[0])
        assert set(payload) == {"error", "message"}
        assert payload["error"] not in forbidden, payload
        return
    assert code == 0, code
    assert err.getvalue() == ""
    if out.getvalue():
        _strict(out.getvalue())
    if out_path is not None:
        assert os.path.exists(out_path)
    for name in set(os.listdir(workdir)) - before:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            _strict(text)
        elif name.endswith(".csv"):
            assert text.startswith("# config: ")
            _strict(text.splitlines()[0][len("# config: "):])


@st.composite
def trace_text(draw):
    """A trace CSV as (kind, text): a noisy Lorentzian, bare or split by an
    electron, down to SNR 0.5; random rows; or junk."""
    kind = draw(st.sampled_from(["lorentzian", "rows", "junk"]))
    if kind == "lorentzian":
        n = draw(st.integers(2, 40))
        # a doublet sits on the default resonator, the one fit rabi takes
        # without --far; g, detuning and gamma_2 are drawn in its linewidths
        doublet = draw(st.booleans())
        center = 7.162 if doublet else draw(st.floats(1.0, 10.0))
        width = 0.023 if doublet else draw(st.floats(1e-4, 0.5))
        noise = draw(st.floats(0.0, 2.0))
        seed = draw(st.integers(0, 2**16))
        f = np.linspace(center - 5 * width, center + 5 * width, n)
        pull = 0.0
        if doublet:
            g, detuning, gamma_2 = width * np.array(draw(st.tuples(
                st.floats(0.1, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))))
            pull = -1j * g**2 / (center + detuning - f - 1j * gamma_2)
        s21 = (width / 2) / (width / 2 + 1j * (center - f) + pull)
        s21 = s21 + noise * (np.array([1, 1j]) @ np.random.default_rng(seed).normal(size=(2, n)))
        body = "".join(f"{a!r},{b.real!r},{b.imag!r}\n" for a, b in zip(f, s21))
        return kind, "freq_GHz,re_s21,im_s21\n" + body
    if kind == "rows":
        rows = draw(st.lists(st.lists(CELL, min_size=1, max_size=4), max_size=12))
        return kind, "freq_GHz,re_s21,im_s21\n" + "".join(",".join(r) + "\n" for r in rows)
    return kind, draw(st.text(max_size=80))


SIDECAR = st.one_of(
    st.none(),
    st.sampled_from(["{not json", "[1, 2]", "null", '{"metadata": 3}', ""]),
    st.dictionaries(st.sampled_from(["metadata", "config"]),
                    st.one_of(st.none(), st.integers(), st.text(max_size=5)),
                    max_size=2).map(json.dumps),
)

_SECTION_VALUE = st.one_of(
    FINITE, st.sampled_from([0.0, -1.0, 1e300]), st.text(max_size=4), st.booleans(),
    st.none(), st.lists(st.integers(), max_size=2),
)
CONFIG = st.one_of(
    st.sampled_from(["{broken", "[]", "3", '"text"', "", "\xff\xfe"]),
    st.dictionaries(
        st.sampled_from(["constants", "resonator", "other"]),
        st.one_of(
            st.dictionaries(
                st.sampled_from(["m_e", "e", "h", "hbar", "l_r", "c_r", "kappa_1",
                                 "kappa_int", "bogus"]),
                _SECTION_VALUE, max_size=3),
            _SECTION_VALUE,
        ),
        max_size=2,
    ).map(json.dumps),
)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


@SETTINGS
@given(kind=st.sampled_from(sorted(CALC)), data=st.data())
def test_calc_flags(kind, data):
    argv = ["calc", kind]
    for flag in CALC[kind]:
        argv += [flag, data.draw(CALC_NUMBER, label=flag)]
    with tempfile.TemporaryDirectory() as work:
        if kind in CALC_CONFIG and data.draw(st.booleans(), label="with config"):
            argv += ["--config", _write(work, "cfg.json", data.draw(CONFIG, label="config"))]
        _run(argv, work)


@SETTINGS
@given(
    points=st.one_of(st.integers(-3, 40).map(str), NUMBER),
    flags=st.lists(
        st.tuples(st.sampled_from(["--snr", "--g-mhz", "--f-el-ghz", "--gamma2-mhz",
                                   "--span-mhz", "--f-res-ghz", "--crosstalk-t",
                                   "--kappa-int-mhz"]), NUMBER),
        max_size=3, unique_by=lambda t: t[0]),
    config=st.one_of(st.none(), CONFIG),
)
def test_synth_flags(points, flags, config):
    with tempfile.TemporaryDirectory() as work:
        argv = ["synth", "--points", points, "--out", os.path.join(work, "t.csv")]
        for flag, value in flags:
            argv += [flag, value]
        if config is not None:
            argv += ["--config", _write(work, "cfg.json", config)]
        _run(argv, work)


@SETTINGS
@given(kind=st.sampled_from(["bare", "rabi"]), trace=trace_text(), sidecar=SIDECAR,
       far=st.one_of(st.none(), trace_text()))
def test_fit_trace_files(kind, trace, sidecar, far):
    # a fit of Lorentzians, however noisy, fails by no float error
    lorentzians = trace[0] == "lorentzian" and (far is None or far[0] == "lorentzian")
    with tempfile.TemporaryDirectory() as work:
        path = _write(work, "trace.csv", trace[1])
        if sidecar is not None:
            _write(work, "trace.csv.json", sidecar)
        argv = ["fit", kind, "--trace", path, "--out", os.path.join(work, "fit.json")]
        if kind == "rabi" and far is not None:
            argv += ["--far", _write(work, "far.csv", far[1])]
        _run(argv, work, forbidden=ARITHMETIC if lorentzians else frozenset())


@SETTINGS
@given(target=trace_text(), far=trace_text(), sidecar=SIDECAR, target_sidecar=SIDECAR)
def test_compensate_files(target, far, sidecar, target_sidecar):
    with tempfile.TemporaryDirectory() as work:
        argv = ["compensate", "--far", _write(work, "far.csv", far[1]),
                "--target", _write(work, "target.csv", target[1]),
                "--out", os.path.join(work, "comp.csv")]
        if sidecar is not None:
            _write(work, "far.csv.json", sidecar)
        if target_sidecar is not None:
            _write(work, "target.csv.json", target_sidecar)
        _run(argv, work)


@st.composite
def twotone_text(draw):
    """Two-tone CSV: a Lorentzian dip on few points, random rows, or junk."""
    kind = draw(st.sampled_from(["dip", "rows", "junk"]))
    if kind == "dip":
        n = draw(st.integers(1, 30))
        f = np.linspace(8.0, 9.0, n)
        center = draw(st.floats(7.5, 9.5))
        gamma = draw(st.floats(1e-4, 1.0))
        depth = draw(st.floats(-1.0, 1.0))
        resp = 1.0 - depth * gamma**2 / ((f - center) ** 2 + gamma**2)
        return "freq_GHz,response\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(f, resp))
    if kind == "rows":
        rows = draw(st.lists(st.lists(CELL, min_size=1, max_size=3), max_size=10))
        return "".join(",".join(r) + "\n" for r in rows)
    return draw(st.text(max_size=60))


@SETTINGS
@given(data=twotone_text())
def test_fit_twotone_files(data):
    with tempfile.TemporaryDirectory() as work:
        _run(["fit", "twotone", "--data", _write(work, "dip.csv", data),
              "--out", os.path.join(work, "dip.json")], work)


GRID = st.integers(3, 9).map(str)


@SETTINGS
@given(
    trap=st.lists(st.tuples(st.sampled_from(["--a1x", "--a1y", "--a2x", "--a2y", "--ex",
                                             "--ey"]), NUMBER),
                  max_size=6, unique_by=lambda t: t[0]),
    nx=GRID, ny=GRID, k=st.integers(-1, 12).map(str),
)
def test_qsolve_flags(trap, nx, ny, k):
    # a 5 GHz trap on both axes unless a drawn flag replaces it
    flags = {"--a1x": "1.1e-8", "--a1y": "1.1e-8", **dict(trap)}
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "levels.json")
        argv = ["qsolve", "--nx", nx, "--ny", ny, "--k", k, "--out", out]
        for flag, value in flags.items():
            argv += [flag, value]
        _run(argv, work, out)


@st.composite
def maps_text(draw):
    """Coupling-map JSON: a small dome, a dome with one bad cell, or junk."""
    kind = draw(st.sampled_from(["dome", "dome", "bad cell", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from([
            "{broken", "[]", "3", "null", '{"x_axis_um": 1}',
            '{"x_axis_um": [0, 1], "y_axis_um": [0, 1], "electrodes": {}}',
            '{"x_axis_um": [1, 0], "y_axis_um": [0, 1], "electrodes": {"trap": [[0, 0], [0, 0]]}}',
            '{"x_axis_um": ["a", 1], "y_axis_um": [0, 1],'
            ' "electrodes": {"trap": [[0, 0], [0, 0]]}}',
            '{"x_axis_um": [0, 1], "y_axis_um": [0, 1], "electrodes": {"trap": [[0, 0]]}}',
            '{"x_axis_um": [0, 1], "y_axis_um": [0, 1], "electrodes": {"trap": 3}}',
            '{"x_axis_um": [0, 1], "y_axis_um": [0, 1], "electrodes": {"trap": [[0, 0], [0, 0]]},'
            ' "metadata": 3}',
        ]))
    n = draw(st.integers(4, 9))
    half = draw(st.floats(0.05, 5.0))
    width = draw(st.floats(0.05, 2.0))
    axis = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(axis, axis)
    dome = np.exp(-(xx**2 + (yy / 0.7) ** 2) / width**2).tolist()
    # a second electrode, so a drawn --voltage names one that is not swept
    gate = np.exp(-(xx**2 + yy**2) / (2 * width**2)).tolist()
    payload = {"x_axis_um": axis.tolist(), "y_axis_um": axis.tolist(),
               "electrodes": {"trap": dome, "gate": gate}}
    if draw(st.booleans()):
        payload["resonator_diff_grad_per_um"] = (0.15 * np.exp(-(xx**2 + yy**2))).tolist()
    if kind == "bad cell":
        grid = draw(st.sampled_from(["trap", "resonator_diff_grad_per_um"]))
        if grid in payload:
            target = payload[grid] if grid != "trap" else payload["electrodes"]["trap"]
            target[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
                st.one_of(st.sampled_from([None, "x", 2.0, -1.0, 1e308]), FINITE))
    return json.dumps(payload)


SWEEP_FLAG = st.sampled_from(["--vmin", "--vmax", "--ex", "--ey", "--voltage"])


def _sweep(data, kind: str, flags: dict) -> None:
    """Run one sweep on a drawn maps file with the given flags, and with up
    to three of the shared sweep flags set to a NUMBER value."""
    n = data.draw(st.sampled_from(["1", "2"]), label="n")
    # one point sweeps --vmin alone, so its default --vmax equals it
    flags = {"--vmin": "0.25", "--vmax": "0.25" if n == "1" else "0.3", **flags}
    overrides = st.lists(st.tuples(SWEEP_FLAG, NUMBER), max_size=3, unique_by=lambda t: t[0])
    for flag, value in data.draw(overrides, label="overrides"):
        flags[flag] = f"gate={value}" if flag == "--voltage" else value
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, f"{kind}.csv")
        argv = ["sweep", kind, "--out", out,
                "--maps", _write(work, "maps.json", data.draw(maps_text(), label="maps")),
                "--electrode", "trap",
                "--n", n,
                "--seed", str(data.draw(st.integers(-2**16, 2**16), label="seed"))]
        for flag, value in flags.items():
            argv += [flag, value]
        _run(argv, work, out)


@SETTINGS
@given(data=st.data())
def test_sweep_freq_maps_and_flags(data):
    _sweep(data, "freq", {"--nx": data.draw(GRID, label="nx"),
                          "--ny": data.draw(GRID, label="ny"),
                          "--k": data.draw(st.integers(-1, 12).map(str), label="k")})


@SETTINGS
@given(data=st.data())
def test_sweep_shift_maps_and_flags(data):
    flags = {"--n-electrons": data.draw(st.integers(1, 3).map(str), label="n-electrons"),
             "--restarts": data.draw(st.integers(1, 2).map(str), label="restarts")}
    if data.draw(st.booleans(), label="with gradient"):
        flags["--grad-per-um"] = data.draw(st.just("0.15") | NUMBER, label="grad")
    _sweep(data, "shift", flags)


def test_contract_holds_on_math_edge_values():
    # a few values the generators above reach only by luck
    with tempfile.TemporaryDirectory() as work:
        for argv in (
            ["calc", "cooperativity", "--g-mhz", "1e200", "--kappa-mhz", "1",
             "--gamma2-mhz", "1"],
            ["calc", "purcell-res", "--g-mhz", "1e200", "--kappa-mhz", "1e-300",
             "--delta-ghz", "0"],
            ["calc", "g", "--coupling-length-nm", "1e-320"],
            ["synth", "--points", "3", "--span-mhz", "1e308", "--out",
             os.path.join(work, "t.csv")],
        ):
            _run(argv, work)
