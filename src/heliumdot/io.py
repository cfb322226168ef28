"""File formats: trace CSV, sweep CSV, fit JSON, and SVG line plots.

Frequencies cross the file boundary in cyclic units (GHz for axes, Hz for
fit parameters); everything internal stays angular.  CSV floats are repr's,
JSON is orjson's with sorted keys, both shortest round-trip, so reruns of
the same inputs write byte-identical files.  Trace rows are spelled by one
orjson call over the whole table, respelled to repr's bytes, and read back
by one ``np.loadtxt`` call, numpy's C reader, whose values are ``float``'s
bit for bit.  The resolved run configuration rides along in every file: a
``# config:`` comment line in CSV, a ``config`` key in JSON.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .cavity import SpectrumTrace
from .core import FormatError, GHZ, MHZ, TWO_PI, read_json_object

if TYPE_CHECKING:  # the writers' row and fit types, for annotations only
    from .cluster import ShiftSweepRow
    from .fitters import FitResult
    from .qsolver import FrequencySweepRow


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_default(obj):
    """What orjson does not encode itself: a complex number as {"re", "im"},
    an array it refuses (complex, or a strided view) as nested lists."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_text(obj, indent: bool = True) -> str:
    """obj as JSON with sorted keys and non-finite floats as null, 2-space
    indented with a final "\n", or on one line; a TypeError (orjson's) when obj
    nests past 255 levels or holds an int beyond 64 bits or invalid UTF-8."""
    import orjson  # late import, as core's reader, so importing cli loads no orjson

    option = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
    text = orjson.dumps(obj, default=_json_default,
                        option=option | orjson.OPT_INDENT_2 if indent else option).decode()
    return text + "\n" if indent else text


def _config_line(config: Mapping | None) -> str:
    return f"# config: {json_text(config, indent=False)}\n" if config else ""


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with "\\n" line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_text(path: str, what: str) -> str:
    """The whole text of a UTF-8 file, with every line ending read as "\\n";
    FormatError naming ``what`` when the file is not UTF-8.  The one reader
    of CSV files, so a digest and a parse see the same text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{what}: not UTF-8 text") from None


def text_sha256(text: str) -> str:
    """Hex SHA-256 of a file's text as :func:`read_text` returns it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _table(text: str, what: str, ncols: int, exact: bool) -> np.ndarray:
    """The first ``ncols`` cells of each data row of a CSV text as an
    (ncols, rows) float array, column 0 turned from GHz into rad/s.  Blank
    lines, ``#`` comments and a ``freq...`` header are no data rows.

    A row needs exactly ``ncols`` cells when ``exact``, at least that many
    otherwise, and every cell it keeps must be a finite number.  The rows
    are parsed by one call of numpy's C reader, ``np.loadtxt``, whose values
    equal ``float``'s bit for bit.  Only when that fails are the rows
    scanned in order with ``float``, which also takes the cells loadtxt
    refuses (``1_0``, non-ASCII digits), so the grammar is ``float``'s and
    a FormatError names the first bad row.
    """
    rows = [line for line in (line.strip() for line in text.split("\n"))
            if line and not line.startswith("#") and not line.lower().startswith("freq")]
    if rows:  # loadtxt warns on empty input
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2,
                               usecols=None if exact else range(ncols)).T.copy()
        except ValueError:
            pass  # a cell or a row length loadtxt refuses: the scan below decides
        else:
            if table.shape == (ncols, len(rows)):
                with np.errstate(over="ignore"):  # overflow to inf: a non-finite row
                    table[0] *= GHZ
                if np.isfinite(table).all():
                    return table
    values = []
    for line in rows:
        parts = line.split(",")
        if len(parts) != ncols if exact else len(parts) < ncols:
            raise FormatError(f"{what}: expected {ncols} columns, got {len(parts)}" if exact
                              else f"{what}: need {ncols} columns")
        try:
            row = [float(p) for p in parts[:ncols]]
        except ValueError:
            raise FormatError(f"{what}: non-numeric row {line!r}") from None
        row[0] *= GHZ
        if not all(map(math.isfinite, row)):
            raise FormatError(f"{what}: non-finite row {line!r}")
        values.extend(row)
    return np.array(values, float).reshape(len(rows), ncols).T.copy()


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


# orjson's spellings that differ from repr's: an exponent (``e-7``, ``e16``
# for repr's ``e-07``, ``e+16``), a value of 1e-5 <= |x| < 1e-4 in decimal
# (``0.0000888`` for ``8.88e-05``), and ``null`` for each non-finite value
_EXPONENT = re.compile(r"e(-?)(\d+)")
_SMALL = re.compile(r"0\.0000(\d)(\d*)")


def _repr_exponent(m: re.Match) -> str:
    return f"e{m[1] or '+'}{m[2]:0>2}"


def _repr_small(m: re.Match) -> str:
    if m.string[m.start() - 1] in "0123456789":  # the tail of a number such as 10.00001
        return m[0]
    return f"{m[1]}.{m[2]}e-05" if m[2] else f"{m[1]}e-05"


def _repr_rows(table: np.ndarray) -> str:
    """The rows of a C-contiguous (n, 3) float table as CSV lines, each value
    spelled as ``repr`` spells it: one orjson call writes the shortest
    round-trip digits of the whole table, and three rewrites give them
    repr's spelling."""
    text = json_text(table, indent=False)
    if "e" in text:
        text = _EXPONENT.sub(_repr_exponent, text)
    if "0.0000" in text:
        text = _SMALL.sub(_repr_small, text)
    nonfinite = table[~np.isfinite(table)]
    if nonfinite.size:
        # in C order, as orjson writes them; a number array's JSON holds no braces
        text = text.replace("null", "{}").format(*map(repr, nonfinite.tolist()))
    return text[2:-2].replace("],[", "\n") + "\n"


def write_trace(trace: SpectrumTrace, path: str, config: Mapping | None = None) -> None:
    """Write a trace as CSV (freq_GHz, re_s21, im_s21) plus a JSON sidecar.

    Each CSV value reads as ``repr`` writes it (see :func:`_repr_rows`).
    The sidecar (same path with .json appended) carries the trace metadata
    and the resolved config.  Both texts are formatted before either file is
    written, so metadata that cannot be encoded leaves no CSV without its
    sidecar.
    """
    table = np.column_stack((trace.probe / GHZ, trace.s21.real, trace.s21.imag))
    csv = _config_line(config) + "freq_GHz,re_s21,im_s21\n" + _repr_rows(table)
    sidecar = json_text({"metadata": trace.metadata, "config": config or {}})
    write_text(path, csv)
    write_text(path + ".json", sidecar)


def read_trace(path: str) -> SpectrumTrace:
    """Read a trace CSV written by :func:`write_trace` (sidecar optional)."""
    return parse_trace(read_text(path, f"trace {path}"), path)


def parse_trace(text: str, path: str) -> SpectrumTrace:
    """The trace in ``text``, the CSV text of ``path`` as :func:`read_text`
    returns it, with the metadata of that path's sidecar when there is one."""
    probe, re, im = _table(text, f"trace {path}", 3, exact=True)
    if probe.size < 2:
        raise FormatError(f"trace {path}: fewer than 2 data rows")
    s21 = np.empty(probe.size, complex)
    s21.real, s21.imag = re, im  # re + 1j * im would turn a -0.0 part into +0.0
    metadata = {}
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        metadata = read_json_object(sidecar, "trace sidecar").get("metadata", {})
        if not isinstance(metadata, dict):
            raise FormatError(f"trace sidecar {sidecar}: 'metadata' must be an object")
        try:  # at the depth write_trace puts it
            json_text({"metadata": metadata})
        except TypeError as exc:
            raise FormatError(f"trace sidecar {sidecar}: 'metadata' cannot be written "
                              f"back ({exc})") from None
    return SpectrumTrace(probe=probe, s21=s21, metadata=metadata)


def read_twotone_csv(path: str) -> tuple:
    """Read two-tone data (freq_GHz, response; extra columns ignored).

    Returns (drive [rad/s], response) arrays; FormatError on a short,
    non-numeric or non-finite row, or when the file has no data rows.
    """
    what = f"two-tone data {path}"
    drive, response = _table(read_text(path, what), what, 2, exact=False)
    if not drive.size:
        raise FormatError(f"{what}: no data rows")
    return drive, response


# ---------------------------------------------------------------------------
# fits and sweeps
# ---------------------------------------------------------------------------

# parameter names whose values are angular rates internally; files carry Hz
ANGULAR_PARAMS = {"omega_r", "kappa_tot", "amp", "g", "gamma_2", "omega_e", "gamma"}


def fit_to_json_dict(fit: FitResult, config: Mapping | None = None) -> dict:
    """FitResult as a dict for the fit JSON; angular parameters converted to Hz.

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
        "flags": fit.flags,
        "covariance": covariance,
        "units": units,
        "config": config or {},
    }


def write_fit_json(fit: FitResult, path: str, config: Mapping | None = None) -> None:
    write_text(path, json_text(fit_to_json_dict(fit, config)))


def write_shift_sweep_csv(rows: Sequence[ShiftSweepRow], path: str,
                          config: Mapping | None = None) -> None:
    """Cluster sweep rows: electrode, voltage_V, shift in cyclic MHz, mode list in GHz,
    the minimizer diagnostics (gradient norm in J/m, accepted steps, saddle),
    and the point's flags (``failed:<ErrorName>``, empty for a good point)."""
    lines = [
        _config_line(config),
        "electrode,voltage_V,delta_omega_r_over_2pi_MHz,mode_freqs_GHz,converged,"
        "gradient_norm,iterations,is_saddle,flags\n",
    ]
    for row in rows:
        freqs = ";".join(_fmt(f / GHZ) for f in row.mode_frequencies)
        lines.append(
            f"{row.electrode},{_fmt(row.voltage)},{_fmt(row.shift / MHZ)},"
            f"{freqs},{str(row.converged).lower()},{_fmt(row.gradient_norm)},"
            f"{row.iterations},{str(row.is_saddle).lower()},{';'.join(row.flags)}\n"
        )
    write_text(path, "".join(lines))


def write_freq_sweep_csv(rows: Sequence[FrequencySweepRow], path: str,
                         config: Mapping | None = None) -> None:
    """Level sweep rows: voltage_V, f01_GHz, f12_GHz, alpha_e_MHz, residual, flags."""
    lines = [
        _config_line(config),
        "voltage_V,f01_GHz,f12_GHz,alpha_e_MHz,residual,flags\n",
    ]
    for row in rows:
        flags = ";".join(row.flags)
        lines.append(
            f"{_fmt(row.voltage)},{_fmt(row.omega_01 / GHZ)},"
            f"{_fmt(row.omega_12 / GHZ)},{_fmt(row.alpha / MHZ)},"
            f"{_fmt(row.residual)},{flags}\n"
        )
    write_text(path, "".join(lines))


def write_compensation_json(
    leak: complex, other: np.ndarray, path: str, config: Mapping | None = None
) -> None:
    """Record what background compensation removed from a target trace."""
    write_text(path, json_text({"leak": leak, "other_re": other.real, "other_im": other.imag,
                                "config": config or {}}))


# ---------------------------------------------------------------------------
# SVG line plots
# ---------------------------------------------------------------------------

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
    y: np.ndarray,
    label: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Minimal deterministic SVG plot of one labelled line (no external
    renderer needed); non-finite points are left out."""
    width, height = 640, 420
    x = np.asarray(x, dtype=float)
    margin_l, margin_r, margin_t, margin_b = 62, 16, 30, 46
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b
    y = np.asarray(y, dtype=float)
    finite = y[np.isfinite(y)]
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
    pts = " ".join(
        f"{sx(xi):.6g},{sy(yi):.6g}" for xi, yi in zip(x, y) if math.isfinite(yi)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{margin_l + pw - 6}" y="{margin_t + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#1f6fb2">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
