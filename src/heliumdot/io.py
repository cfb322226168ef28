"""File formats: trace CSV, sweep CSV, fit JSON, and SVG line plots.

Frequencies cross the file boundary in cyclic units (GHz for axes, Hz for
fit parameters); everything internal stays angular.  All writers format
floats with repr (shortest round-trip) and sort JSON keys, so a rerun with
the same inputs produces byte-identical files.  The resolved run
configuration rides along in every file: a ``# config:`` comment line in
CSV, a ``config`` key in JSON.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

from .cavity import SpectrumTrace
from .core import FormatError, TWO_PI
from .fitters import FitResult

_GHZ = 1e9 * TWO_PI  # rad/s per GHz


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _json_dumps(obj) -> str:
    return json.dumps(_denan(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _denan(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _denan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_denan(v) for v in obj]
    return obj


def _config_line(config: Mapping | None) -> str:
    if not config:
        return ""
    return "# config: " + json.dumps(config, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def write_trace(trace: SpectrumTrace, path: str, config: Mapping | None = None) -> None:
    """Write a trace as CSV (freq_GHz, re_s21, im_s21) plus a JSON sidecar.

    The sidecar (same path with .json appended) carries the trace metadata
    and the resolved config.
    """
    lines = [_config_line(config), "freq_GHz,re_s21,im_s21\n"]
    for w, s in zip(trace.probe, trace.s21):
        lines.append(f"{_fmt(w / _GHZ)},{_fmt(s.real)},{_fmt(s.imag)}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    sidecar = {"metadata": _json_safe(trace.metadata), "config": _json_safe(config or {})}
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(sidecar))


def read_trace(path: str) -> SpectrumTrace:
    """Read a trace CSV written by :func:`write_trace` (sidecar optional)."""
    freqs = []
    s21 = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("freq"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FormatError(f"trace {path}: expected 3 columns, got {len(parts)}")
            try:
                f, re, im = (float(p) for p in parts)
            except ValueError:
                raise FormatError(f"trace {path}: non-numeric row {line!r}") from None
            if not all(map(math.isfinite, (f * _GHZ, re, im))):
                raise FormatError(f"trace {path}: non-finite row {line!r}")
            freqs.append(f * _GHZ)
            s21.append(complex(re, im))
    if len(freqs) < 2:
        raise FormatError(f"trace {path}: fewer than 2 data rows")
    metadata = {}
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"trace sidecar {sidecar}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise FormatError(f"trace sidecar {sidecar}: top level must be an object")
        metadata = raw.get("metadata", {})
    return SpectrumTrace(probe=np.array(freqs), s21=np.array(s21), metadata=metadata)


def read_twotone_csv(path: str) -> tuple:
    """Read two-tone data (freq_GHz, response; extra columns ignored).

    Returns (drive [rad/s], response) arrays; FormatError on a short or
    non-numeric row, or when the file has no data rows.
    """
    drive = []
    response = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("freq"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise FormatError(f"two-tone data {path}: need 2 columns")
            try:
                f, r = float(parts[0]), float(parts[1])
            except ValueError:
                raise FormatError(f"two-tone data {path}: non-numeric row {line!r}") from None
            if not (math.isfinite(f * _GHZ) and math.isfinite(r)):
                raise FormatError(f"two-tone data {path}: non-finite row {line!r}")
            drive.append(f * _GHZ)
            response.append(r)
    if not drive:
        raise FormatError(f"two-tone data {path}: no data rows")
    return np.array(drive), np.array(response)


# ---------------------------------------------------------------------------
# fits and sweeps
# ---------------------------------------------------------------------------

# parameter names whose values are angular rates internally; files carry Hz
ANGULAR_PARAMS = {"omega_r", "kappa_tot", "amp", "g", "gamma_2", "omega_e", "gamma"}


def fit_to_json_dict(fit: FitResult, config: Mapping | None = None) -> dict:
    """FitResult as a JSON-ready dict; angular parameters converted to Hz.

    ``covariance[a][b]`` is in units[a] * units[b], null when singular;
    ``flags`` are the fit's diagnostics as they stand.
    """
    names = list(fit.params)
    to_hz = np.array([TWO_PI if n in ANGULAR_PARAMS else 1.0 for n in names])
    units = {n: "Hz" if n in ANGULAR_PARAMS else "1" for n in names}
    params = {
        n: {"value": fit.params[n] / s, "sigma": fit.sigmas.get(n, math.nan) / s}
        for n, s in zip(names, to_hz)
    }
    covariance = None
    if fit.covariance is not None:
        cov = np.asarray(fit.covariance) / np.outer(to_hz, to_hz)
        covariance = {a: dict(zip(names, row)) for a, row in zip(names, cov.tolist())}
    return {
        "params": params,
        "rss": fit.rss,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "flags": _json_safe(fit.flags),
        "covariance": covariance,
        "units": units,
        "config": _json_safe(config or {}),
    }


def write_fit_json(fit: FitResult, path: str, config: Mapping | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(fit_to_json_dict(fit, config)))


def write_shift_sweep_csv(rows: Sequence, path: str, config: Mapping | None = None) -> None:
    """Cluster sweep rows: electrode, voltage_V, shift in cyclic MHz, mode list in GHz,
    and the minimizer diagnostics (gradient norm in J/m, accepted steps, saddle)."""
    lines = [
        _config_line(config),
        "electrode,voltage_V,delta_omega_r_over_2pi_MHz,mode_freqs_GHz,converged,"
        "gradient_norm,iterations,is_saddle\n",
    ]
    for row in rows:
        freqs = ";".join(_fmt(f / _GHZ) for f in row.mode_frequencies)
        lines.append(
            f"{row.electrode},{_fmt(row.voltage)},{_fmt(row.shift / TWO_PI / 1e6)},"
            f"{freqs},{str(row.converged).lower()},{_fmt(row.gradient_norm)},"
            f"{row.iterations},{str(row.is_saddle).lower()}\n"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def write_freq_sweep_csv(rows: Sequence, path: str, config: Mapping | None = None) -> None:
    """Level sweep rows: voltage_V, f01_GHz, f12_GHz, alpha_e_MHz, residual, flags."""
    lines = [
        _config_line(config),
        "voltage_V,f01_GHz,f12_GHz,alpha_e_MHz,residual,flags\n",
    ]
    for row in rows:
        flags = ";".join(row.flags)
        lines.append(
            f"{_fmt(row.voltage)},{_fmt(row.f01_hz / 1e9)},{_fmt(row.f12_hz / 1e9)},"
            f"{_fmt(row.alpha_hz / 1e6)},{_fmt(row.residual)},{flags}\n"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def write_compensation_json(
    leak: complex, other: np.ndarray, path: str, config: Mapping | None = None
) -> None:
    """Record what background compensation removed from a target trace."""
    payload = {
        "leak": {"re": leak.real, "im": leak.imag},
        "other_re": [float(v) for v in other.real],
        "other_im": [float(v) for v in other.imag],
        "config": _json_safe(config or {}),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_dumps(payload))


def _json_safe(obj):
    if isinstance(obj, Mapping):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


# ---------------------------------------------------------------------------
# SVG line plots
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f6fb2", "#d1495b", "#3e8e5a", "#8661a8", "#b07a28")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def svg_line_plot(
    x: np.ndarray,
    series: Mapping[str, np.ndarray],
    xlabel: str,
    ylabel: str,
    title: str = "",
    width: int = 640,
    height: int = 420,
) -> str:
    """Minimal deterministic SVG line plot (no external renderer needed)."""
    x = np.asarray(x, dtype=float)
    margin_l, margin_r, margin_t, margin_b = 62, 16, 30, 46
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b
    ys = [np.asarray(v, dtype=float) for v in series.values()]
    y_all = np.concatenate(ys) if ys else np.array([0.0, 1.0])
    finite = y_all[np.isfinite(y_all)]
    y_lo, y_hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 1.0)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.6g}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.6g}" y1="{margin_t + ph}" x2="{px:.6g}" '
            f'y2="{margin_t + ph + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px:.6g}" y="{margin_t + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{py:.6g}" x2="{margin_l}" '
            f'y2="{py:.6g}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{py + 4:.6g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.6g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + pw / 2:.6g}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + ph / 2:.6g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + ph / 2:.6g})">{ylabel}</text>'
    )
    for i, (label, yv) in enumerate(series.items()):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(xi):.6g},{sy(yi):.6g}"
            for xi, yi in zip(x, yv)
            if math.isfinite(yi)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin_l + pw - 6}" y="{margin_t + 16 + 14 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, svg: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
