from __future__ import annotations

import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from decimal import Context, Decimal
from pathlib import Path

import pytest

from heliumdot import analytic, cavity, core
from heliumdot.cli import main
from heliumdot.core import (
    CONSTANTS,
    DomainError,
    FormatError,
    GHZ,
    MHZ,
    PhysicalConstants,
    ResonatorParams,
    TWO_PI,
    default_resonator,
    derived_resonator_quantities,
    read_json_object,
)


def test_cyclic_unit_constants():
    assert GHZ == 2.0 * math.pi * 1e9
    assert MHZ == 2.0 * math.pi * 1e6
    assert 7.162 * GHZ / TWO_PI == pytest.approx(7.162e9, rel=1e-15)


def test_constants_consistency():
    assert CONSTANTS.hbar == pytest.approx(CONSTANTS.h / TWO_PI, rel=1e-15)
    # Coulomb constant, CODATA
    assert CONSTANTS.coulomb == pytest.approx(8.9875517923e9, rel=1e-9)


def test_constants_reject_bad_values():
    with pytest.raises(DomainError):
        PhysicalConstants(e=-1.0)
    with pytest.raises(DomainError):
        PhysicalConstants(h=0.0)
    with pytest.raises(TypeError):
        PhysicalConstants(hbar=2.0e-34)  # no field: hbar follows h


def test_resonator_from_mode_inverts_properties():
    res = ResonatorParams.from_mode(TWO_PI * 7.0e9, 3500.0)
    assert res.omega_r == pytest.approx(TWO_PI * 7.0e9, rel=1e-12)
    assert res.impedance == pytest.approx(3500.0, rel=1e-12)


def test_resonator_validation():
    with pytest.raises(DomainError):
        ResonatorParams(l_r=-85e-9, c_r=5.8e-15)
    with pytest.raises(DomainError):
        ResonatorParams(l_r=85e-9, c_r=5.8e-15, kappa_1=-1.0)
    with pytest.raises(DomainError):
        ResonatorParams.from_mode(-1.0, 3800.0)


def test_default_resonator_mode_quantities():
    """Frozen values for the 85 nH / 5.8 fF device defaults."""
    res = default_resonator()
    assert res.omega_r == pytest.approx(45037734911.1045, rel=1e-12)
    assert res.omega_r / TWO_PI == pytest.approx(7.167978136764705e9, rel=1e-12)
    assert res.impedance == pytest.approx(3828.2074674438823, rel=1e-12)
    assert res.kappa_tot == pytest.approx(TWO_PI * 23e6, rel=1e-12)


def test_derived_quantities_zero_point_voltage():
    res = default_resonator()
    omega_r, z, v_zpf = derived_resonator_quantities(res)
    assert type(omega_r) is float and omega_r == res.omega_r
    assert z == res.impedance
    assert v_zpf == pytest.approx(4.0469454623366644e-05, rel=1e-12)
    # definition check: v_zpf^2 = 2 hbar omega / C
    assert v_zpf**2 == pytest.approx(
        2.0 * CONSTANTS.hbar * res.omega_r / res.c_r, rel=1e-12
    )


def test_kappa_tot_is_sum():
    res = ResonatorParams(
        l_r=85e-9, c_r=5.8e-15, kappa_1=1.0, kappa_2=2.0, kappa_int=3.5
    )
    assert res.kappa_tot == 6.5


def _run_with_config(tmp_path, argv, cfg) -> int:
    """Run ``argv`` through the CLI with ``cfg`` as its --config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])


def _spy(monkeypatch, module, name) -> list:
    """Record the (args, kwargs) of each call to ``module.name``."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append((a, kw)) or real(*a, **kw))
    return calls


def _one_format_error(capsys, tmp_path) -> str:
    """The message of the one FormatError line a refused config writes."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "FormatError"
    assert not (tmp_path / "out").exists()
    return error["message"]


_CALC_G = ["calc", "g", "--coupling-length-nm", "2200"]
_SYNTH = ["synth", "--points", "11"]


def test_config_roundtrip(tmp_path, monkeypatch):
    # a partial section keeps the other defaults, on both records
    default = default_resonator()
    calls = _spy(monkeypatch, analytic, "coupling_g")
    cfg = {"constants": {"m_e": 2.0 * CONSTANTS.m_e}, "resonator": {"l_r": 90e-9}}
    assert _run_with_config(tmp_path, _CALC_G, cfg) == 0
    ((res, _ell), kwargs), = calls
    consts = kwargs["constants"]
    assert consts.m_e == 2.0 * CONSTANTS.m_e
    assert (consts.e, consts.h, consts.rho_he) == (CONSTANTS.e, CONSTANTS.h, CONSTANTS.rho_he)
    assert res == ResonatorParams(l_r=90e-9, c_r=5.8e-15, kappa_1=default.kappa_1,
                                  kappa_2=default.kappa_2)

    calls = _spy(monkeypatch, cavity, "synthesize_trace")
    assert _run_with_config(tmp_path, _SYNTH, {"resonator": {"l_r": 90e-9,
                                                             "kappa_int": 1e5}}) == 0
    res = calls[0][0][0]
    assert (res.l_r, res.kappa_int) == (90e-9, 1e5)
    assert res.c_r == 5.8e-15  # default carried through
    assert (res.kappa_1, res.kappa_2) == (default.kappa_1, default.kappa_2)


def test_config_h_hbar_coderivation(tmp_path, monkeypatch, capsys):
    # hbar is h / 2pi, the same expression as the default, so it is no field:
    # an h override moves it, and with it the zero-point voltage of calc g
    assert CONSTANTS.hbar == 6.62607015e-34 / TWO_PI
    calls = _spy(monkeypatch, analytic, "coupling_g")
    assert _run_with_config(tmp_path, _CALC_G, {"constants": {"h": 2.0 * CONSTANTS.h}}) == 0
    assert calls[0][1]["constants"].hbar == 2.0 * CONSTANTS.h / TWO_PI
    doubled = json.loads((tmp_path / "out").read_text())
    (tmp_path / "out").unlink()
    assert main(_CALC_G) == 0
    plain = json.loads(capsys.readouterr().out)
    assert doubled["v_zpf_uV"] == pytest.approx(math.sqrt(2.0) * plain["v_zpf_uV"], rel=1e-14)

    assert _run_with_config(tmp_path, _CALC_G, {"constants": {"hbar": CONSTANTS.hbar}}) == 1
    assert "'constants' fields ['hbar'] are not read" in _one_format_error(capsys, tmp_path)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    for argv, section, name in ((_CALC_G, "constants", "speed_of_sound"),
                                (_SYNTH, "resonator", "quality")):
        assert _run_with_config(tmp_path, argv, {section: {name: 343.0}}) == 1
        assert f"{section!r} fields [{name!r}] are not read" in _one_format_error(capsys,
                                                                                  tmp_path)


def test_config_rejects_removed_resonator_fields(tmp_path, capsys):
    # l_tail and c_dot were provenance-only fields that no model read
    for name in ("l_tail", "c_dot"):
        assert _run_with_config(tmp_path, _SYNTH, {"resonator": {name: 1e-9}}) == 1
        assert f"'resonator' fields [{name!r}] are not read" in _one_format_error(capsys,
                                                                                 tmp_path)


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        read_json_object(str(path), "config")
    path.write_text("[1, 2, 3]")
    with pytest.raises(FormatError):
        read_json_object(str(path), "config")


# ---------------------------------------------------------------------------
# the JSON reader: orjson, with json for whatever orjson refuses
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    """a and b are equal with the same types, key order and float bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return a == b


_EXACT = Context(prec=1200)  # enough digits for the exact midpoint of any two doubles


def _number_text(rng: random.Random) -> str:
    """A JSON number: a float's repr from random bits, a 1-60-digit decimal,
    an exact or near midpoint of two adjacent doubles, a subnormal, or an
    integer within 64 bits."""
    kind = rng.randrange(6)
    if kind == 0:
        value = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        return repr(value) if math.isfinite(value) else "0.5"
    if kind == 1:
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 60)))
        sign = rng.choice(("", "-"))
        return f"{sign}{digits[0]}.{digits[1:] or '0'}e{rng.randint(-340, 300)}"
    if kind in (2, 3):
        low = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
        if not math.isfinite(math.nextafter(low, math.inf)):
            low = 1.0
        mid = _EXACT.divide(_EXACT.add(Decimal(low), Decimal(math.nextafter(low, math.inf))), 2)
        if kind == 2:
            return f"{mid:e}"
        near = Context(prec=rng.randint(17, 40), rounding=rng.choice(("ROUND_UP", "ROUND_DOWN")))
        return f"{near.plus(mid):e}"
    if kind == 4:
        return repr(rng.getrandbits(52) * 5e-324)
    return str(rng.randint(-2**63, 2**64 - 1))


_CHARS = 'ab"\\/\b\f\n\r\t\x00\x1f\u00e9\u2028\ufeff\U0001f600 '


def _string_text(rng: random.Random) -> str:
    text = "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 12)))
    quoted = json.dumps(text, ensure_ascii=rng.random() < 0.5)
    return quoted[:-1] + rng.choice(("", "\\/", "\\u00e9", "\\ud83d\\ude00")) + '"'


def _document_text(rng: random.Random, depth=0) -> str:
    roll = rng.random()
    if depth < 4 and roll < 0.2:
        items = (f"{_string_text(rng)}: {_document_text(rng, depth + 1)}"
                 for _ in range(rng.randint(0, 6)))
        return "{" + ", ".join(items) + "}"
    if depth < 4 and roll < 0.4:
        return "[" + ",".join(_document_text(rng, depth + 1) for _ in range(rng.randint(0, 6))) + "]"
    if roll < 0.75:
        return _number_text(rng)
    if roll < 0.9:
        return _string_text(rng)
    return rng.choice(("true", "false", "null"))


def _read_both(path):
    with open(path, encoding="utf-8") as fh:
        return read_json_object(str(path), "doc"), json.load(fh)


@pytest.mark.parametrize("seed", range(8))
def test_read_json_object_equals_json_load(tmp_path, seed):
    # seeded documents of nested objects and arrays, escaped strings, ints
    # within 64 bits and floats of every kind read as json.load reads them,
    # to the type and the float bit
    rng = random.Random(seed)
    path = tmp_path / "doc.json"
    for _ in range(25):
        path.write_text('{"doc": ' + _document_text(rng) + "}", encoding="utf-8")
        got, want = _read_both(path)
        assert _same(got, want), path.read_text(encoding="utf-8")
    path.write_text('{"numbers": [' + ", ".join(_number_text(rng) for _ in range(5000)) + "]}",
                    encoding="utf-8")
    got, want = _read_both(path)
    assert _same(got, want)


_REFUSED_BY_ORJSON = {
    "nan": '{"a": NaN}',
    "infinity": '{"a": Infinity}',
    "-infinity": '{"a": -Infinity}',
    "1e400": '{"a": 1e400}',
    "bom": '\ufeff{"a": 1}',
    "trailing-comma": '{"a": 1,}',
}


@pytest.mark.parametrize("case", sorted(_REFUSED_BY_ORJSON))
def test_read_json_object_falls_back_to_json(tmp_path, case):
    # what orjson refuses goes to json, which keeps its value or its message
    import orjson

    text = _REFUSED_BY_ORJSON[case]
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(text)
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    try:
        want = json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(FormatError) as info:
            read_json_object(str(path), "config")
        assert str(info.value) == f"config {path}: invalid JSON ({exc})"
    else:
        assert _same(read_json_object(str(path), "config"), want)


@pytest.mark.parametrize("text", ['{"a": 1,\r\n "b": [1, 2]}', '{"a": 1,\r\n "b": }',
                                  '{"a":\r 1,\r "b": x}', '{"a": NaN,\r\n"b": 1}'],
                         ids=["crlf", "crlf-error", "cr-error", "crlf-fallback"])
def test_read_json_object_reads_line_ends_as_a_text_mode_read(tmp_path, text):
    # the file's bytes are parsed, but json sees the text a text-mode read
    # gives, with every line end read as "\n", so its messages keep their
    # positions
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        try:
            want = json.load(fh)
        except json.JSONDecodeError as exc:
            with pytest.raises(FormatError) as info:
                read_json_object(str(path), "doc")
            assert str(info.value) == f"doc {path}: invalid JSON ({exc})"
            return
    assert _same(read_json_object(str(path), "doc"), want)


def test_read_json_object_reads_ints_beyond_64_bits_as_floats(tmp_path):
    # the one number orjson reads differently from json: an integer literal
    # outside [-2**63, 2**64) is the nearest float, not an int
    ints = [2**64 - 1, -2**63, 2**64, -2**63 - 1, 10**30]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": ints}))
    got = read_json_object(str(path), "doc")["n"]
    assert _same(got, ints[:2] + [float(v) for v in ints[2:]])
    # a literal beyond float range orjson refuses, so json reads the document
    path.write_text(json.dumps({"n": ints + [10**400]}))
    assert _same(read_json_object(str(path), "doc")["n"], ints + [10**400])


def test_read_json_object_reads_nesting_json_cannot(tmp_path):
    # the other input read differently: json's parser recurses, and nesting
    # this deep raises RecursionError, which orjson's does not
    depth = 5000
    text = '{"a": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(RecursionError):
        json.loads(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    node = read_json_object(str(path), "doc")["a"]
    for _ in range(depth - 1):
        (node,) = node
    assert node == []


def test_read_json_object_sends_many_brackets_to_json(tmp_path, monkeypatch):
    # past MAX_ORJSON_BRACKETS opening brackets orjson is not called: a flat
    # document reads as json reads it, a deep one is a FormatError
    import orjson

    monkeypatch.setattr(orjson, "loads", lambda text: pytest.fail("orjson parsed it"))
    many = core.MAX_ORJSON_BRACKETS + 1
    path = tmp_path / "doc.json"
    flat = '{"a": [' + ", ".join(['[1, {"b": 2.5}]'] * (many // 2 + 1)) + "]}"
    path.write_text(flat)
    assert _same(read_json_object(str(path), "doc"), json.loads(flat))
    path.write_text('{"a": ' + "[" * many + "]" * many + "}")
    message = f"^doc {re.escape(str(path))}: JSON nested deeper than the parser's recursion limit$"
    with pytest.raises(FormatError, match=message):
        read_json_object(str(path), "doc")


def test_cli_reports_a_config_nested_too_deep_for_orjson(tmp_path):
    # 300 000 levels overflow the C stack in orjson's recursive parser, which
    # kills the process; the command must print one JSON error line instead
    (tmp_path / "deep.json").write_text(
        '{"constants": ' + "[" * 300_000 + "]" * 300_000 + "}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(core.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-m", "heliumdot.cli", "qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8",
         "--config", "deep.json"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 1, done.stderr[-2000:]
    assert done.stdout == ""
    assert [json.loads(line) for line in done.stderr.splitlines()] == [{
        "error": "FormatError",
        "message": "config deep.json: JSON nested deeper than the parser's recursion limit"}]


def test_error_hierarchy():
    assert issubclass(DomainError, ValueError)
    assert issubclass(FormatError, ValueError)
    assert issubclass(core.FitError, RuntimeError)
