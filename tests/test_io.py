from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

from heliumdot import io
from heliumdot.cavity import SpectrumTrace
from heliumdot.core import FormatError, TWO_PI
from heliumdot.fitters import FitResult
from heliumdot.io import (
    fit_to_json_dict,
    json_text,
    parse_trace,
    read_text,
    read_trace,
    read_twotone_csv,
    svg_line_plot,
    text_sha256,
    write_compensation_json,
    write_fit_json,
    write_freq_sweep_csv,
    write_shift_sweep_csv,
    write_text,
    write_trace,
)

GHZ = 1e9 * TWO_PI


def _trace(n=5):
    probe = np.linspace(7.0 * GHZ, 7.4 * GHZ, n)
    s21 = np.exp(1j * np.linspace(0.0, 1.0, n)) * np.linspace(1.0, 0.5, n)
    return SpectrumTrace(probe=probe, s21=s21, metadata={"seed": 3, "snr": 50.0})


def test_trace_roundtrip_exact(tmp_path):
    path = str(tmp_path / "trace.csv")
    trace = _trace(31)
    write_trace(trace, path, config={"tool": "heliumdot", "options": {"seed": 3}})
    back = read_trace(path)
    # repr formatting makes the roundtrip exact, not approximate
    assert np.array_equal(back.probe, trace.probe)
    assert np.array_equal(back.s21, trace.s21)
    assert back.metadata["seed"] == 3
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["config"]["options"]["seed"] == 3


def test_trace_header_and_config_line(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(_trace(), str(path), config={"a": 1})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "freq_GHz,re_s21,im_s21"


def test_read_trace_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("freq_GHz,re_s21,im_s21\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(FormatError):
        read_trace(str(bad))
    bad.write_text("freq_GHz,re_s21,im_s21\n1.0,x,0.0\n2.0,1.0,0.0\n")
    with pytest.raises(FormatError):
        read_trace(str(bad))
    bad.write_text("freq_GHz,re_s21,im_s21\n1.0,1.0,0.0\n")
    with pytest.raises(FormatError):
        read_trace(str(bad))
    with pytest.raises(OSError):
        read_trace(str(tmp_path / "missing.csv"))


def test_digest_and_parse_read_the_same_text(tmp_path):
    # a trace's digest is the SHA-256 of its file as written; CRLF line ends
    # read as "\n", so a CRLF copy parses to the same trace and digest
    path = tmp_path / "t.csv"
    write_trace(_trace(), str(path))
    text = read_text(str(path), "trace")
    digest = text_sha256(text)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert np.array_equal(parse_trace(text, str(path)).s21, read_trace(str(path)).s21)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert text_sha256(read_text(str(crlf), "trace")) == digest
    assert np.array_equal(read_trace(str(crlf)).s21, read_trace(str(path)).s21)
    crlf.write_bytes(b"\xff" + path.read_bytes())
    with pytest.raises(FormatError, match="trace: not UTF-8 text"):
        read_text(str(crlf), "trace")


def test_write_trace_matches_per_value_repr(tmp_path):
    edges = [-0.0, 5e-324, 1e-5, 1e-4, 9.999e15, 1e16, 1e300, -1e-7, 1.7976931348623157e308,
             -5e-324]
    probe = np.array([-1.7976931348623157e308, -1e300, -0.0, 5e-324, 1e-5, 1e-4, 9.999e15,
                      1e16, 1e300, 1.7976931348623157e308])
    s21 = np.empty(len(edges), complex)
    s21.real, s21.imag = edges, edges[::-1]
    path = tmp_path / "edges.csv"
    write_trace(SpectrumTrace(probe=probe, s21=s21), str(path))
    lines = path.read_text().splitlines(keepends=True)
    reference = [
        f"{repr(float(f))},{repr(float(re))},{repr(float(im))}\n"
        for f, re, im in zip(probe / GHZ, s21.real, s21.imag)
    ]
    assert lines == ["freq_GHz,re_s21,im_s21\n"] + reference
    assert [line.split(",")[1] for line in lines[1:]] == [
        "-0.0", "5e-324", "1e-05", "0.0001", "9999000000000000.0", "1e+16", "1e+300",
        "-1e-07", "1.7976931348623157e+308", "-5e-324",
    ]


def _exactness_family() -> np.ndarray:
    """An (n, 3) table of finite values the trace writer must spell as repr
    does: random 64-bit patterns, every decade from 1e-320 to 1e308, the
    edges of repr's exponent range and numbers whose decimals hold 0.0000,
    in every column."""
    rng = np.random.default_rng(38)
    bits = rng.integers(0, 2**64, size=200_001, dtype=np.uint64).view(np.float64)
    mantissas = rng.uniform(1.0, 10.0, size=(8, 629)) * rng.choice([-1.0, 1.0], size=(8, 629))
    with np.errstate(over="ignore"):
        decades = (mantissas * 10.0 ** np.arange(-320, 309)).ravel()
    edges = np.array([1e-5, 1e-4, 9.999999999999999e-05, 1e16, 5e-324, -0.0, 0.0,
                      np.nextafter(1e-5, 0.0), np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0),
                      10.00001, -0.00009, 100.00001, -10.0000123, 1.00001e-5, 1e-7, 1e300])
    edges = np.concatenate([edges, -edges])
    values = np.concatenate([bits[np.isfinite(bits)], decades[np.isfinite(decades)]])
    values = values[: values.size // 3 * 3].reshape(-1, 3)
    return np.concatenate([values, np.stack([edges, np.roll(edges, 1), np.roll(edges, 2)], 1)])


def test_write_trace_spells_a_seeded_family_as_repr(tmp_path):
    table = _exactness_family()
    n = len(table)
    s21 = np.empty(n, complex)
    s21.real, s21.imag = table[:, 1], table[:, 2]
    trace = SpectrumTrace(probe=np.arange(1.0, n + 1.0), s21=s21)
    # the probe axis is checked only when a trace is built, and the writer
    # takes any finite column; a value past the float range in rad/s stays
    # in GHz
    with np.errstate(over="ignore"):
        probe = table[:, 0] * GHZ
    trace.probe = np.where(np.isfinite(probe), probe, table[:, 0])
    path = tmp_path / "family.csv"
    write_trace(trace, str(path))
    reference = [f"{f!r},{re!r},{im!r}\n" for f, re, im in
                 zip((trace.probe / GHZ).tolist(), table[:, 1].tolist(), table[:, 2].tolist())]
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0] == "freq_GHz,re_s21,im_s21\n"
    assert lines[1:] == reference
    # each of the writer's two respellings has cells to act on
    cells = set(",".join(lines[1:]).replace("\n", ",").split(","))
    assert {"1e-05", "-9e-05", "10.00001", "1e+16", "1e-07"} <= cells


def test_parse_trace_reads_cells_as_float_does(tmp_path):
    # bare -0, integer cells and 1E5-style exponents, each as float reads it,
    # -0's sign included; a JSON-based reader would need to keep these
    cells = ["-0", "0", "10", "-10", "1E5", "-1E5", "1e5", "2.5E-3", "1E+5", "-0E0",
             "007", "1E-320", "-0.0", "123456789012345678901234567890"]
    probe = ["7", "8", "9", "1E1", "11", "12", "1.3E1", "14", "15", "16", "17", "18", "19", "20"]
    text = "freq_GHz,re_s21,im_s21\n" + "".join(
        f"{f},{re},{im}\n" for f, re, im in zip(probe, cells, cells[::-1]))
    trace = parse_trace(text, str(tmp_path / "cells.csv"))
    for got, want in ((trace.probe, [float(c) * GHZ for c in probe]),
                      (trace.s21.real, [float(c) for c in cells]),
                      (trace.s21.imag, [float(c) for c in cells[::-1]])):
        want = np.array(want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(trace.s21.real[0]) and not np.signbit(trace.s21.real[1])


def test_json_text_arrays():
    # orjson writes a C-contiguous float array itself; every non-finite
    # value is null
    assert json_text(np.array([1.5, -0.0, 5e-324]), indent=False) == "[1.5,-0.0,5e-324]"
    assert (json_text(np.array([1.0, math.nan, math.inf, -math.inf]), indent=False)
            == "[1.0,null,null,null]")
    grid = np.array([[1.0, math.nan], [2.0, 3.0]])
    assert json_text(grid, indent=False) == "[[1.0,null],[2.0,3.0]]"
    assert json_text([1, [2]]) == "[\n  1,\n  [\n    2\n  ]\n]\n"


def _reference_json_safe(obj):
    """The writers' value cleaner before orjson wrote every JSON text, kept
    as the reference the encoder is checked against."""
    if isinstance(obj, Mapping):
        return {str(k): _reference_json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return [_reference_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _reference_json_text(obj, indent: bool) -> str:
    if indent:
        return json.dumps(_reference_json_safe(obj), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    return json.dumps(_reference_json_safe(obj), sort_keys=True, allow_nan=False)


_EDGES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 1e-5, 1e16,
          1e-7]
_TEXTS = ["", "trap", "é", "Ω", "zeta", "naïve ☃", "\U0001F600", "quote\"back\\slash\ttab\n"]


def _float(rng) -> float:
    if rng.random() < 0.5:
        return float(_EDGES[rng.integers(len(_EDGES))])
    return float(rng.normal() * 10.0 ** rng.integers(-300, 300))


def _leaf(rng):
    """One value of a kind the writers are handed."""
    kind = rng.integers(7)
    if kind == 0:
        return np.float64(_float(rng))
    if kind == 1:
        return np.int64(rng.integers(-2**63, 2**63 - 1))
    if kind == 2:
        return _float(rng)
    if kind == 3:
        return np.array([_float(rng) for _ in range(rng.integers(1, 9))])  # C-contiguous
    if kind == 4:
        return _TEXTS[rng.integers(len(_TEXTS))]
    if kind == 5:
        return int(rng.integers(-2**63, 2**63 - 1)) * int(rng.integers(2))
    return [True, False, None][rng.integers(3)]


def _payload(rng, depth: int = 0):
    """A seeded nest of dicts, lists and tuples over every leaf kind."""
    kind = rng.integers(4) if depth < 4 else 3
    if kind == 3:
        return _leaf(rng)
    children = [_payload(rng, depth + 1) for _ in range(rng.integers(1, 5))]
    if kind == 0:
        return {_TEXTS[rng.integers(len(_TEXTS))] + str(i): child
                for i, child in enumerate(children)}
    if kind == 1:
        return children
    return tuple(children)


def _bits(value):
    """value parsed from JSON with each float as its hex, so -0.0 and every
    last bit count, and each object as its (key, value) pairs in order."""
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return float.hex(value)
    return (type(value).__name__, value)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("indent", [True, False])
def test_json_text_keeps_every_value_of_the_reference_writer(seed, indent):
    rng = np.random.default_rng(seed)
    payload = {"top" + str(i): _payload(rng) for i in range(6)}
    payload["edges"] = (_EDGES, np.array(_EDGES))
    text = json_text(payload, indent=indent)
    assert _bits(json.loads(text)) == _bits(json.loads(_reference_json_text(payload, indent)))
    assert (text.endswith("\n"), "\n" in text[:-1]) == (indent, indent)


def test_trace_roundtrip_bit_exact_1601_rows(tmp_path):
    rng = np.random.default_rng(7)
    n = 1601
    probe = np.sort(rng.uniform(6.5, 7.5, n)) * GHZ
    re, im = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-300, 300, size=(2, n))
    re[::97] = -0.0
    im[::89] = -0.0
    im[1::89] = 0.0
    s21 = np.empty(n, complex)
    s21.real, s21.imag = re, im
    path = str(tmp_path / "trace.csv")
    write_trace(SpectrumTrace(probe=probe, s21=s21), path)
    back = read_trace(path)
    for got, want in ((back.probe, probe), (back.s21.real, re), (back.s21.imag, im)):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(back.s21.real[0]) and np.signbit(back.s21.imag[0])
    assert not np.signbit(back.s21.imag[1])


# The trace grammar is float()'s on each stripped, comma-split cell: the flat
# orjson parse reads the common case, and float() takes the cells it refuses.
_GRAMMAR = [
    # (rows, ncols, exact, the rows as parsed in the file's GHz, or the message)
    (" 7.0 , 1.0 ,\t-0.0\n7.1,\t2.5e-3 ,0\n", 3, True,
     [[7.0, 1.0, -0.0], [7.1, 2.5e-3, 0.0]]),
    ("+7.0,+1,-1\n7.1,1_0,1_0.5e-1_0\n", 3, True, [[7.0, 1.0, -1.0], [7.1, 10.0, 10.5e-10]]),
    ("7.0,\u0661,0\n7.1,\uff12.5,0\n", 3, True, [[7.0, 1.0, 0.0], [7.1, 2.5, 0.0]]),
    ("7.0,1.0,0.0,\n7.1,1.0,0.0,\n", 3, True, "expected 3 columns, got 4"),
    ("7.0,1.0,0.0\n7.1,1.0,0.0 # note\n", 3, True, "non-numeric row '7.1,1.0,0.0 # note'"),
    ("7.0,1.0,0.0\nfreq_GHz,re_s21,im_s21\n7.1,2.0,0.5\n", 3, True,
     [[7.0, 1.0, 0.0], [7.1, 2.0, 0.5]]),
    ("7.0,1.0,0.0,4.0\n7.1,1.0,0.0,4.0\n", 3, True, "expected 3 columns, got 4"),
    ("7.0,1.0\n7.1,1.0\n", 3, True, "expected 3 columns, got 2"),
    ("7.0,1.0,0.0\n7.1,1.0_,0.0\n", 3, True, "non-numeric row '7.1,1.0_,0.0'"),
    ("# only\n#comments\n\n", 3, True, []),
    ("8.6,0.9,abc\n8.7,-0.0,\n8.8,0.7,1,2\n", 2, False,
     [[8.6, 0.9], [8.7, -0.0], [8.8, 0.7]]),
    ("8.6,0.9,\n8.7,1_0\n", 2, False, [[8.6, 0.9], [8.7, 10.0]]),
    ("8.6,0.9,1\n8.7\n", 2, False, "need 2 columns"),
    ("8.6, 0.9 # note\n", 2, False, "non-numeric row '8.6, 0.9 # note'"),
    ("# only comments\n", 2, False, []),
]


@pytest.mark.parametrize("rows, ncols, exact, want", _GRAMMAR)
def test_table_grammar_is_floats(rows, ncols, exact, want):
    text = "# config: {}\nfreq_GHz,a,b\n" + rows
    if isinstance(want, str):
        with np.errstate(over="raise"), pytest.raises(FormatError) as exc:
            io._table(text, "data", ncols, exact)
        assert str(exc.value) == f"data: {want}"
        return
    table = io._table(text, "data", ncols, exact)
    expected = np.array(want, float).reshape(len(want), ncols).T.copy()
    expected[0] *= GHZ
    assert table.shape == expected.shape and table.dtype == np.float64
    assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))


def _reader_family() -> list:
    """Rows of three cells the flat orjson reader takes: the values of the
    writer's family spelled as repr, %.17g, %.25e and %.3E, integers up to
    200 bits, 400-digit fractions, the exact decimals of subnormal halfway
    cases and their neighbours, and signed zeros and underflows.  Column 0
    keeps its values below 1e290, so the GHz step stays finite."""
    import random
    from decimal import Decimal, localcontext

    rng = random.Random(39)
    values = _exactness_family().ravel()
    values = values[np.isfinite(values)][::7].tolist()
    cells = [f"{v!r}" for v in values]
    for spec in ("%.17g", "%.25e", "%.3E"):
        cells += [spec % v for v in values[::5] if v != 0.0]
    cells += [str(rng.choice([-1, 1]) * rng.getrandbits(k)) for k in range(1, 201)] * 3
    cells += [f"{sign}{head}.{rng.getrandbits(1400):0>400}"[:404 + len(sign)]
              for sign in ("", "-") for head in (0, 7, 123)] * 20
    with localcontext() as ctx:
        ctx.prec = 1200
        tiny = Decimal(2) ** -1075  # half the smallest subnormal
        for k in list(range(12)) + [2**52 - 3, 2**52 - 1, 2**52 + 1, 2**53 - 1]:
            half = (2 * k + 1) * tiny
            for d in (half, half.next_plus(), half.next_minus()):
                cells += [f"{d:e}", f"-{d:e}", f"{d:f}"]
    cells += ["-0.0", "-0e0", "-0E0", "0e0", "1e-400", "-1e-400", "5e-324"] * 3
    cells += ["0"] * (-len(cells) % 3)
    rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
    rng.shuffle(rows)
    for row in rows:  # a probe cell the GHz step cannot overflow
        if not abs(float(row[0])) < 1e290:
            row[0] = "7.162"
    return rows


def _float_scan(rows, ncols) -> np.ndarray:
    """The reference reader: each kept cell through float, column 0 to rad/s."""
    table = np.array([[float(c) for c in row[:ncols]] for row in rows], float).T.copy()
    table[0] *= GHZ
    return table


def test_table_reads_a_seeded_family_as_float_does():
    rows = _reader_family()
    text = "# config: {}\nfreq_GHz,re_s21,im_s21\n" + "".join(",".join(r) + "\n" for r in rows)
    body = text[io._data_start(text):].rstrip()
    assert io._flat_table(body, 3, True) is not None  # the flat parse reads it all
    got = io._table(text, "family", 3, True)
    want = _float_scan(rows, 3)
    assert got.shape == want.shape == (3, len(rows))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(got).sum() == np.signbit(want).sum() > 0
    assert (got == 0.0).any() and (abs(got[1:]) < 2.3e-308).any()


# Cells and rows the flat orjson parse declines, each read as the float scan
# reads it: (rows, ncols, exact, the rows' cells, or the scan's message)
_FALLBACK = [
    ("7.0,-0,1.0\n7.1,2.0,-0\n", 3, True, [["7.0", "-0", "1.0"], ["7.1", "2.0", "-0"]]),
    ("7.0,1e-0,-0.0e-0\n7.1,2.0,0\n", 3, True, [["7.0", "1e-0", "-0.0e-0"], ["7.1", "2.0", "0"]]),
    ("7.0,1.0,0.0\n\n7.1,2.0,0.5\n", 3, True, [["7.0", "1.0", "0.0"], ["7.1", "2.0", "0.5"]]),
    ("7.0,1.0,0.0\n# mid\n7.1,2.0,0.5\n", 3, True,
     [["7.0", "1.0", "0.0"], ["7.1", "2.0", "0.5"]]),
    ("7.0,+1,0.0\n7.1,.5,1_0\n", 3, True, [["7.0", "+1", "0.0"], ["7.1", ".5", "1_0"]]),
    ("7.0,true,0.0\n7.1,1.0,0.0\n", 3, True, "non-numeric row '7.0,true,0.0'"),
    ('7.0,1.0,0.0\n7.1,"1",0.0\n', 3, True, "non-numeric row '7.1,\"1\",0.0'"),
    ("7.0,1.0\n7.1,2.0,0.5,3.0\n", 3, True, "expected 3 columns, got 2"),
    ("7.0,1.0,0.0\n7.1,2.0\n7.2,1.0,0.5,3.0\n", 3, True, "expected 3 columns, got 2"),
    ("8.6,0.9\n8.7,1.0,2.0,3.0\n8.8,0.7,1.0\n", 2, False,
     [["8.6", "0.9"], ["8.7", "1.0"], ["8.8", "0.7"]]),
    # rows whose cells fill whole rows of the first row's width: only the
    # closing nulls off the last column show them
    ("7.0,1.0,0.0\n7.1,2.0,0.5,3.0,7.2,1.0,0.5\n", 3, True, "expected 3 columns, got 7"),
    ("8.6,0.9,1.0\n8.7,1.0\n8.8,0.7,1.0,2.0\n", 2, False,
     [["8.6", "0.9"], ["8.7", "1.0"], ["8.8", "0.7"]]),
    # a short row after a wide one, its cells and null landing in columns
    # past the kept ones, with as many cells as two rows of the first width
    ("8.6,0.9,1.0,2.0\n8.7,1.0\n8.8\n", 2, False, "need 2 columns"),
    ("7.0,\u0661,0\n7.1,\uff12.5,0\n", 3, True, [["7.0", "1", "0"], ["7.1", "2.5", "0"]]),
    ("7.0,1.0,0.0\n7.1,nan,0.0\n", 3, True, "non-finite row '7.1,nan,0.0'"),
    ("7.0,1.0,0.0\n7.1,1e400,0.0\n", 3, True, "non-finite row '7.1,1e400,0.0'"),
]


@pytest.mark.parametrize("rows, ncols, exact, want", _FALLBACK)
def test_table_falls_back_to_the_float_scan(rows, ncols, exact, want):
    text = "freq_GHz,a,b\n" + rows
    assert io._flat_table(text[io._data_start(text):].rstrip(), ncols, exact) is None
    if isinstance(want, str):
        with np.errstate(over="raise"), pytest.raises(FormatError) as exc:
            io._table(text, "data", ncols, exact)
        assert str(exc.value) == f"data: {want}"
        return
    table = io._table(text, "data", ncols, exact)
    expected = _float_scan(want, ncols)
    assert np.array_equal(table.view(np.uint64), expected.view(np.uint64))


def test_table_parse_builds_no_list_per_row(monkeypatch):
    # one flat list for the whole table: a list per row would make 1601
    # tracked containers at once and wake the cyclic collector on every
    # trace read (about 1600 more on gen 0 than this)
    import gc

    import orjson

    rng = np.random.default_rng(1601)
    table = np.column_stack((np.linspace(6.662, 7.662, 1601), rng.normal(size=(1601, 2))))
    text = "freq_GHz,re_s21,im_s21\n" + io._repr_rows(table)
    loads, counts = orjson.loads, []

    def spy(data):
        parsed = loads(data)
        counts.append(gc.get_count()[0])  # while the parse result is alive
        return parsed

    monkeypatch.setattr(orjson, "loads", spy)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        got = io._table(text, "trace", 3, True)
    finally:
        gc.enable()
    assert got.shape == (3, 1601)
    assert len(counts) == 1 and counts[0] - before < 16


@pytest.mark.parametrize("n", [401, 1601])
def test_synthesized_trace_file_round_trips_bit_for_bit(tmp_path, n):
    # a README-chain trace with some -0.0 parts: read back bit for bit, and
    # written again byte for byte
    rng = np.random.default_rng(n)
    probe = np.linspace(6.662, 7.662, n) * GHZ
    s21 = 0.5 / (1.0 + 1j * (probe - 7.162 * GHZ) / (0.0115 * GHZ))
    s21 += 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    s21.real[::53] = -0.0
    s21.imag[7::41] = -0.0
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_trace(SpectrumTrace(probe=probe, s21=s21), first)
    back = read_trace(first)
    for got, want in ((back.probe, probe), (back.s21.real, s21.real),
                      (back.s21.imag, s21.imag)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    write_trace(back, second)
    assert Path(first).read_bytes() == Path(second).read_bytes()


_TRACE_ERRORS = [
    ("7.0,2.0\n7.1,1.0,0.0\n", "expected 3 columns, got 2"),
    ("7.0,1.0,0.0\n7.1,1.0,0.0,4.0\n", "expected 3 columns, got 4"),
    ("7.0,x,0.0\n7.1,1.0,0.0\n", "non-numeric row '7.0,x,0.0'"),
    ("7.0,1.0,0.0\n7.1,nan,0.0\n7.2,x,0.0\n", "non-finite row '7.1,nan,0.0'"),
    ("7.0,1.0,0.0\n7.1,x,0.0\n7.2,nan,0.0\n", "non-numeric row '7.1,x,0.0'"),
    ("7.0,1.0,-inf\n7.1,1.0\n", "non-finite row '7.0,1.0,-inf'"),
    ("7.0,1.0\n7.1,inf,0.0\n", "expected 3 columns, got 2"),
    ("7.0,1.0,0.0\n1e308,1.0,0.0\n", "non-finite row '1e308,1.0,0.0'"),
    ("7.0,1.0,0.0\n", "fewer than 2 data rows"),
    ("# no rows\n", "fewer than 2 data rows"),
]


@pytest.mark.parametrize("rows, message", _TRACE_ERRORS)
def test_read_trace_error_messages(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("freq_GHz,re_s21,im_s21\n" + rows)
    # the CLI reads under raising float errors; a frequency that overflows in
    # the GHz to rad/s step is a non-finite row, not a FloatingPointError
    with np.errstate(over="raise"), pytest.raises(FormatError) as exc:
        read_trace(str(path))
    assert str(exc.value) == f"trace {path}: {message}"


_TWOTONE_ERRORS = [
    ("8.6,0.9\n8.7\n", "need 2 columns"),
    ("8.6,0.9\n8.7,y\n", "non-numeric row '8.7,y'"),
    ("8.6,nan,1.0\n8.7,y\n", "non-finite row '8.6,nan,1.0'"),
    ("8.6,0.9\ninf,0.8\n8.8\n", "non-finite row 'inf,0.8'"),
    ("", "no data rows"),
]


@pytest.mark.parametrize("rows, message", _TWOTONE_ERRORS)
def test_read_twotone_error_messages(tmp_path, rows, message):
    path = tmp_path / "dip.csv"
    path.write_text("freq_GHz,response\n" + rows)
    with np.errstate(over="raise"), pytest.raises(FormatError) as exc:
        read_twotone_csv(str(path))
    assert str(exc.value) == f"two-tone data {path}: {message}"


def test_read_twotone_ignores_extra_columns(tmp_path):
    path = tmp_path / "dip.csv"
    path.write_text("freq_GHz,response,note\n8.6,0.9,abc\n8.7,-0.0,\n8.8,0.7,1,2\n")
    drive, response = read_twotone_csv(str(path))
    assert np.array_equal(drive, np.array([8.6, 8.7, 8.8]) * GHZ)
    assert np.array_equal(response, [0.9, -0.0, 0.7])
    assert np.signbit(response[1])


def _fit_result():
    return FitResult(
        params={"omega_r": 7.162e9 * TWO_PI, "t": 0.008},
        sigmas={"omega_r": 1e5 * TWO_PI, "t": math.nan},
        rss=1.2e-4,
        iterations=7,
        converged=True,
    )


def test_fit_json_units_and_nan_handling(tmp_path):
    d = fit_to_json_dict(_fit_result())
    assert d["params"]["omega_r"]["value"] == pytest.approx(7.162e9)
    assert d["units"]["omega_r"] == "Hz"
    assert d["units"]["t"] == "1"
    assert d["params"]["t"]["value"] == 0.008

    path = tmp_path / "fit.json"
    write_fit_json(_fit_result(), str(path))
    loaded = json.loads(path.read_text())
    # NaN sigma must land as null, never as a bare NaN token
    assert loaded["params"]["t"]["sigma"] is None
    assert "NaN" not in path.read_text()


def test_shift_sweep_csv(tmp_path):
    class Row:
        electrode = "guard"
        voltage = 0.25
        shift = -2.0e6 * TWO_PI
        mode_frequencies = (20.0 * GHZ, 25.0 * GHZ)
        converged = True
        gradient_norm = 3.5e-16
        iterations = 12
        is_saddle = False
        flags = ()

    path = tmp_path / "sweep.csv"
    write_shift_sweep_csv([Row()], str(path), config={"n": 1})
    lines = path.read_text().splitlines()
    assert lines[1] == (
        "electrode,voltage_V,delta_omega_r_over_2pi_MHz,mode_freqs_GHz,converged,"
        "gradient_norm,iterations,is_saddle,flags"
    )
    fields = lines[2].split(",")
    assert fields[0] == "guard"
    assert float(fields[2]) == pytest.approx(-2.0)
    assert [float(v) for v in fields[3].split(";")] == pytest.approx([20.0, 25.0])
    assert fields[4] == "true"
    assert float(fields[5]) == 3.5e-16
    assert fields[6:] == ["12", "false", ""]


def test_freq_sweep_csv_with_failed_row(tmp_path):
    class Good:
        voltage = 0.1
        omega_01 = 5.0 * GHZ
        omega_12 = 4.8 * GHZ
        alpha = -0.2 * GHZ
        residual = 1e-12
        flags = ()

    class Bad:
        voltage = 0.2
        omega_01 = math.nan
        omega_12 = math.nan
        alpha = math.nan
        residual = math.nan
        flags = ("failed:DomainError",)

    path = tmp_path / "freqs.csv"
    write_freq_sweep_csv([Good(), Bad()], str(path))
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[1] == "5.0"
    assert lines[2].split(",")[1] == "nan"
    assert lines[2].split(",")[5] == "failed:DomainError"


def test_compensation_json(tmp_path):
    path = tmp_path / "comp.json"
    write_compensation_json(0.1 - 0.2j, np.array([0.01 + 0.0j, 0.0 + 0.02j]), str(path))
    loaded = json.loads(path.read_text())
    assert loaded["leak"] == {"im": -0.2, "re": 0.1}
    assert loaded["other_re"] == [0.01, 0.0]
    assert loaded["other_im"] == [0.0, 0.02]


# ---------------------------------------------------------------------------
# SVG plots
# ---------------------------------------------------------------------------


def test_svg_plot_structure_and_determinism(tmp_path):
    x = np.linspace(0.0, 1.0, 20)
    svg1 = svg_line_plot(x, np.sin(x), "sin", xlabel="x", ylabel="y")
    svg2 = svg_line_plot(x, np.sin(x), "sin", xlabel="x", ylabel="y")
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.count("<polyline") == 1
    points = svg1.split('points="', 1)[1].split('"', 1)[0].split()
    assert len(points) == x.size
    assert ">sin</text>" in svg1
    path = tmp_path / "plot.svg"
    write_text(str(path), svg1)
    assert path.read_text() == svg1


def test_io_import_loads_no_scipy():
    # io names the sweep rows and the fit result in annotations only, so
    # reading or writing a file pulls in neither the solvers nor scipy
    script = ("import sys, heliumdot.io\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(io.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"
