from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heliumdot import analytic, cavity, cli, cluster, core, fitters, io, qsolver
from heliumdot.cli import build_parser, main
from heliumdot.core import CONSTANTS, TWO_PI
from heliumdot.io import read_trace

GHZ = 1e9 * TWO_PI


def _synth_args(out, kind="bare", seed=0):
    args = [
        "synth", "--f-res-ghz", "7.162", "--points", "401",
        "--span-mhz", "1000", "--crosstalk-t", "0.008",
        "--crosstalk-zeta", "-0.30", "--seed", str(seed), "--out", out,
    ]
    if kind == "rabi":
        args += ["--f-el-ghz", "7.162", "--g-mhz", "118", "--gamma2-mhz", "75"]
    return args


def test_synth_writes_trace_and_sidecar(tmp_path):
    out = str(tmp_path / "trace.csv")
    assert main(_synth_args(out)) == 0
    trace = read_trace(out)
    assert trace.probe.size == 401
    sidecar = json.loads((tmp_path / "trace.csv.json").read_text())
    assert sidecar["config"]["tool"] == "heliumdot"
    assert sidecar["config"]["options"]["seed"] == 0


def test_synth_rerun_byte_identical(tmp_path):
    out = str(tmp_path / "trace.csv")
    main(_synth_args(out, seed=7))
    first = (tmp_path / "trace.csv").read_bytes()
    main(_synth_args(out, seed=7))
    assert (tmp_path / "trace.csv").read_bytes() == first


def test_synth_svg(tmp_path):
    out = str(tmp_path / "trace.svg")
    argv = _synth_args(out, kind="rabi") + ["--format", "svg"]
    assert main(argv) == 0
    text = (tmp_path / "trace.svg").read_text()
    assert text.startswith("<svg")


@pytest.mark.parametrize("flag", [["--g-mhz", "118"], ["--gamma2-mhz", "75"]],
                         ids=lambda flag: flag[0])
def test_synth_electron_flag_without_electron_is_usage_error(tmp_path, capsys, flag):
    # without --f-el-ghz the trace is bare, so the flag would be dropped
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--out", str(out), *flag]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert flag[0] in json.loads(err[0])["message"]


def test_synth_electron_without_coupling_is_usage_error(tmp_path, capsys):
    # an electron at g = 0 changes no row of the trace, so --f-el-ghz and
    # --gamma2-mhz would be dropped: --g-mhz is required with them
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--f-el-ghz", "7.162", "--gamma2-mhz", "60",
                 "--out", str(out)]) == 1
    assert not out.exists() and not (tmp_path / "trace.csv.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert "--g-mhz" in json.loads(err[0])["message"]


def test_synth_electron_at_zero_coupling_is_usage_error(tmp_path, capsys):
    # g = 0 writes the rows of a bare trace whatever --f-el-ghz says
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--f-el-ghz", "7.162", "--g-mhz", "0",
                 "--out", str(out)]) == 1
    assert not out.exists() and not (tmp_path / "trace.csv.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert "nonzero --g-mhz" in json.loads(err[0])["message"]


def test_synth_records_the_electron_values_it_used(tmp_path):
    # a bare trace records no electron values; with --f-el-ghz and --g-mhz an
    # omitted --gamma2-mhz is recorded as the 75 MHz the trace used
    assert main(["synth", "--points", "11", "--out", str(tmp_path / "bare.csv")]) == 0
    assert main(["synth", "--points", "11", "--f-el-ghz", "7.162", "--g-mhz", "118",
                 "--out", str(tmp_path / "el.csv")]) == 0
    bare = json.loads((tmp_path / "bare.csv.json").read_text())["config"]["options"]
    el = json.loads((tmp_path / "el.csv.json").read_text())["config"]["options"]
    assert not {"g_mhz", "gamma2_mhz"} & set(bare)
    assert (el["g_mhz"], el["gamma2_mhz"]) == (118.0, 75.0)


def test_fit_bare_pipeline(tmp_path):
    trace = str(tmp_path / "far.csv")
    main(_synth_args(trace))
    out = str(tmp_path / "fit.json")
    assert main(["fit", "bare", "--trace", trace, "--out", out]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["converged"]
    assert fit["params"]["omega_r"]["value"] == pytest.approx(7.162e9, abs=2e5)
    assert fit["params"]["kappa_tot"]["value"] == pytest.approx(23e6, rel=1e-2)
    assert fit["units"]["omega_r"] == "Hz"


def test_fit_bare_of_a_span_with_no_leak_sample(tmp_path):
    # a 60 MHz span holds no sample beyond 3 widths of a 23 MHz line, so the
    # leak starts from its defaults, and the fit still recovers it
    trace = str(tmp_path / "narrow.csv")
    args = _synth_args(trace)
    args[args.index("--span-mhz") + 1] = "60"
    assert main(args) == 0
    narrow = read_trace(trace)
    peak, width = fitters._estimate_peak_and_width(narrow.probe, np.abs(narrow.s21))
    assert not np.any(np.abs(narrow.probe - peak) > 3.0 * width)
    out = str(tmp_path / "fit.json")
    assert main(["fit", "bare", "--trace", trace, "--out", out]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["converged"]
    assert fit["params"]["t"]["value"] == pytest.approx(0.008, rel=1e-6)


def test_fit_rabi_with_reference(tmp_path):
    far = str(tmp_path / "far.csv")
    target = str(tmp_path / "target.csv")
    comp = str(tmp_path / "comp.csv")
    out = str(tmp_path / "rabi.json")
    main(_synth_args(far))
    main(_synth_args(target, kind="rabi"))
    assert main(["compensate", "--far", far, "--target", target, "--out", comp]) == 0
    assert main(["fit", "rabi", "--trace", comp, "--far", far, "--out", out]) == 0
    fit = json.loads((tmp_path / "rabi.json").read_text())
    assert fit["params"]["g"]["value"] == pytest.approx(118e6, abs=2e6)
    assert fit["params"]["gamma_2"]["value"] == pytest.approx(75e6, abs=4e6)
    assert fit["params"]["omega_e"]["value"] == pytest.approx(7.162e9, abs=3e6)
    # compensation also drops a record of what was removed
    removed = json.loads((tmp_path / "comp.csv.comp.json").read_text())
    assert "leak" in removed


def test_fit_rabi_flags_an_electron_fitted_outside_the_probe_span(tmp_path):
    # a weak, narrow electron 210 MHz below a 7.162 GHz resonator, probed
    # over +-0.5 GHz: the fit converges to omega_e below the span's
    # 6662 MHz edge, with g = 17.4 MHz for 11.1, and says so in its flags
    trace, out = str(tmp_path / "t.csv"), str(tmp_path / "fit.json")
    assert main(["synth", "--f-res-ghz", "7.162", "--span-mhz", "1000", "--points", "401",
                 "--f-el-ghz", "6.952", "--g-mhz", "11.1", "--gamma2-mhz", "16.2",
                 "--out", trace]) == 0
    assert main(["fit", "rabi", "--f-res-ghz", "7.162", "--trace", trace, "--out", out]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["converged"]
    assert fit["params"]["omega_e"]["value"] < 6.662e9
    assert fit["flags"] == {"omega_e_outside_span": True}
    # the README chain's electron sits mid-span and is not flagged
    main(_synth_args(trace, kind="rabi"))
    assert main(["fit", "rabi", "--f-res-ghz", "7.162", "--trace", trace, "--out", out]) == 0
    assert json.loads((tmp_path / "fit.json").read_text())["flags"] == {}


_FIT_RABI_FAR = ["fit", "rabi", "--trace", "comp.csv", "--far", "far.csv", "--out", "fit.json"]


def _compensated_chain(tmp_path, monkeypatch):
    """Synthesize far.csv and target.csv in tmp_path and compensate them into
    comp.csv, with a spy on the bare fit; returns the list of its calls."""
    monkeypatch.chdir(tmp_path)
    main(_synth_args("far.csv", seed=1004))
    main(_synth_args("target.csv", kind="rabi", seed=4))
    calls = []
    bare_fit = fitters.fit_bare_resonator
    monkeypatch.setattr(fitters, "fit_bare_resonator",
                        lambda trace: calls.append(trace) or bare_fit(trace))
    assert main(["compensate", "--far", "far.csv", "--target", "target.csv",
                 "--out", "comp.csv"]) == 0
    return calls


def test_readout_chain_fits_the_far_trace_once(tmp_path, monkeypatch):
    # compensate stores the bare fit and the digest of the far text; fit rabi
    # --far on that same text takes the stored fit, and neither parses nor
    # fits far.csv again
    calls = _compensated_chain(tmp_path, monkeypatch)
    reads = []
    read = io.read_trace
    monkeypatch.setattr(io, "read_trace", lambda path: reads.append(path) or read(path))
    assert main(_FIT_RABI_FAR) == 0
    assert len(calls) == 1
    assert reads == ["comp.csv"]
    meta = json.loads((tmp_path / "comp.csv.json").read_text())["metadata"]
    assert meta["far_sha256"] == hashlib.sha256((tmp_path / "far.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("tamper", ["no_digest", "no_reference_fit", "other_digest",
                                    "no_sidecar"])
def test_fit_rabi_far_refit_writes_what_the_reuse_writes(tmp_path, monkeypatch, tamper):
    # without a stored fit of this very far text, fit rabi --far reads and
    # fits far.csv, and fit.json comes out byte for byte as on the reuse path
    calls = _compensated_chain(tmp_path, monkeypatch)
    assert main(_FIT_RABI_FAR) == 0
    reused = (tmp_path / "fit.json").read_bytes()
    sidecar = tmp_path / "comp.csv.json"
    payload = json.loads(sidecar.read_text())
    meta = payload["metadata"]
    if tamper == "no_sidecar":
        sidecar.unlink()
    else:
        if tamper == "no_digest":
            del meta["far_sha256"]
        elif tamper == "no_reference_fit":
            del meta["reference_fit"]
        else:
            meta["far_sha256"] = hashlib.sha256(b"another trace").hexdigest()
        sidecar.write_text(json.dumps(payload))
    assert main(_FIT_RABI_FAR) == 0
    assert len(calls) == 2
    assert (tmp_path / "fit.json").read_bytes() == reused


def test_fit_rabi_far_refits_a_far_trace_changed_in_one_row(tmp_path, monkeypatch):
    calls = _compensated_chain(tmp_path, monkeypatch)
    assert main(_FIT_RABI_FAR) == 0
    reused = json.loads((tmp_path / "fit.json").read_text())["params"]
    far = tmp_path / "far.csv"
    lines = far.read_text().splitlines(keepends=True)
    mid = 2 + 200  # config line, header, then the row at the peak
    freq, re, im = lines[mid].rstrip("\n").split(",")
    lines[mid] = f"{freq},{float(re) + 0.01!r},{im}\n"
    far.write_text("".join(lines))
    assert main(_FIT_RABI_FAR) == 0
    assert len(calls) == 2
    params = json.loads((tmp_path / "fit.json").read_text())["params"]
    res, _ct = fitters.resonator_from_bare_fit(fitters.fit_bare_resonator(read_trace("far.csv")))
    direct = fitters.fit_rabi(read_trace("comp.csv"), res)
    assert params == json.loads(io.json_text(io.fit_to_json_dict(direct)))["params"]
    assert params != reused


@pytest.mark.parametrize("far_seed, clamped", [(1000, True), (1002, False)])
def test_fit_rabi_far_flags_clamped_ports_on_both_paths(tmp_path, monkeypatch, far_seed,
                                                        clamped):
    # at SNR 50 the bare fit of far seed 1000 lands at amp = 1.0028 kappa_tot/2,
    # so the ports are clamped to kappa_tot/2, and fit.json says so whether
    # the stored fit is reused or far.csv is refit; seed 1002 lands at 0.9963
    monkeypatch.chdir(tmp_path)
    main(_synth_args("far.csv", seed=far_seed) + ["--snr", "50"])
    main(_synth_args("target.csv", kind="rabi", seed=4) + ["--snr", "50"])
    assert main(["compensate", "--far", "far.csv", "--target", "target.csv",
                 "--out", "comp.csv"]) == 0
    sidecar = tmp_path / "comp.csv.json"
    payload = json.loads(sidecar.read_text())
    ref = payload["metadata"]["reference_fit"]
    assert (ref["amp"] > ref["kappa_tot"] / 2) == clamped
    assert main(_FIT_RABI_FAR) == 0
    reused = (tmp_path / "fit.json").read_bytes()
    flags = json.loads(reused)["flags"]
    assert flags.get("overcoupled_amplitude", False) == clamped
    del payload["metadata"]["far_sha256"]
    sidecar.write_text(json.dumps(payload))
    assert main(_FIT_RABI_FAR) == 0
    assert (tmp_path / "fit.json").read_bytes() == reused


def test_fit_rabi_far_leaves_a_clamp_of_one_rounding_unflagged(tmp_path, monkeypatch):
    # a noiseless far trace of lossless ports fits a few ulp above amp =
    # kappa_tot/2: the ports are clamped, by a rounding, which is not flagged
    _compensated_chain(tmp_path, monkeypatch)
    ref = json.loads((tmp_path / "comp.csv.json").read_text())["metadata"]["reference_fit"]
    assert ref["amp"] > ref["kappa_tot"] / 2
    assert main(_FIT_RABI_FAR) == 0
    assert "overcoupled_amplitude" not in json.loads((tmp_path / "fit.json").read_text())["flags"]


def _low_snr_chain(snr, seed):
    """The README chain on 101 points at a low SNR: a far trace of ``seed``,
    an electron at 7.3 GHz with g = 40 MHz at ``seed`` + 1000."""
    device = ["--f-res-ghz", "7.162", "--points", "101", "--span-mhz", "1000", "--snr", snr]
    assert main(["synth", *device, "--seed", str(seed), "--out", "far.csv"]) == 0
    assert main(["synth", *device, "--f-el-ghz", "7.3", "--g-mhz", "40",
                 "--seed", str(seed + 1000), "--out", "t.csv"]) == 0


@pytest.mark.parametrize("snr, seed", [
    ("2", 1), ("2", 3), ("2", 14), ("2", 29), ("2", 44),
    ("0.5", 11), ("0.5", 29), ("0.5", 39), ("0.5", 42), ("0.5", 49), ("0.5", 51),
    ("0.5", 37), ("0.5", 41),
])
def test_fit_rabi_survives_float_trouble_at_low_snr(tmp_path, monkeypatch, capsys, snr, seed):
    # each fit steps through trial points whose coupling squares past the
    # float range or whose covariance overflows, under main's raising
    # errstate; those steps are rejected inside the fit, which writes fit.json
    monkeypatch.chdir(tmp_path)
    _low_snr_chain(snr, seed)
    assert main(["compensate", "--far", "far.csv", "--target", "t.csv",
                 "--out", "comp.csv"]) == 0
    assert main(_FIT_RABI_FAR) == 0, capsys.readouterr().err
    assert set(json.loads((tmp_path / "fit.json").read_text())["params"]) == {
        "g", "gamma_2", "omega_e"}


def test_fit_rabi_flags_an_overflowing_covariance(tmp_path, monkeypatch, capsys):
    # uncompensated, seed 41 at SNR 0.5 fits omega_e near 1e162 rad/s, whose
    # slope under the log transform over the Jacobian's tiny column norm
    # overflows the covariance's scale
    monkeypatch.chdir(tmp_path)
    _low_snr_chain("0.5", 41)
    assert main(["fit", "rabi", "--trace", "t.csv", "--far", "far.csv",
                 "--out", "fit.json"]) == 0, capsys.readouterr().err
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["flags"]["singular_covariance"] is True
    assert fit["covariance"] is None
    assert all(p["sigma"] is None for p in fit["params"].values())


def test_compensate_reads_each_csv_once(tmp_path, monkeypatch):
    # the far digest is taken from the text that was parsed, not from a re-read
    monkeypatch.chdir(tmp_path)
    main(_synth_args("far.csv", seed=1004))
    main(_synth_args("target.csv", kind="rabi", seed=4))
    reads = []
    read = io.read_text
    monkeypatch.setattr(io, "read_text", lambda path, what: reads.append(path) or read(path, what))
    assert main(["compensate", "--far", "far.csv", "--target", "target.csv",
                 "--out", "comp.csv"]) == 0
    assert reads == ["far.csv", "target.csv"]


_BAD_REFERENCE_FITS = {
    "list": lambda good: list(good.values()),
    "null": lambda good: None,
    "missing_key": lambda good: {k: v for k, v in good.items() if k != "zeta"},
    "extra_key": lambda good: {**good, "g": 1.0},
    "string": lambda good: {**good, "amp": str(good["amp"])},
    "bool": lambda good: {**good, "zeta": True},
    "nan": lambda good: {**good, "t": math.nan},
    "inf": lambda good: {**good, "kappa_tot": math.inf},
    "int_beyond_float": lambda good: {**good, "omega_r": 10**400},
}


@pytest.mark.parametrize("bad", sorted(_BAD_REFERENCE_FITS))
def test_fit_rabi_far_rejects_a_bad_stored_fit(tmp_path, monkeypatch, capsys, bad):
    # the digest matches, so the stored fit stands for the far trace: one it
    # cannot use is a format error, never a traceback and never a silent refit
    calls = _compensated_chain(tmp_path, monkeypatch)
    sidecar = tmp_path / "comp.csv.json"
    payload = json.loads(sidecar.read_text())
    meta = payload["metadata"]
    meta["reference_fit"] = _BAD_REFERENCE_FITS[bad](meta["reference_fit"])
    sidecar.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(_FIT_RABI_FAR) == 1
    assert not (tmp_path / "fit.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "FormatError"
    # orjson cannot write an int beyond 64 bits back, so that sidecar is
    # refused by name when the trace is read
    name = ("comp.csv.json: 'metadata' cannot be written back" if bad == "int_beyond_float"
            else "reference_fit")
    assert name in json.loads(err[0])["message"]
    assert len(calls) == 1


def test_fit_twotone(tmp_path):
    center, hwhm = 8.66, 0.102
    freqs = np.linspace(8.0, 9.3, 401)
    resp = 1.0 - 0.5 * hwhm**2 / ((freqs - center) ** 2 + hwhm**2)
    data = tmp_path / "dip.csv"
    data.write_text(
        "freq_GHz,response\n"
        + "".join(f"{float(f)!r},{float(r)!r}\n" for f, r in zip(freqs, resp))
    )
    out = str(tmp_path / "dip.json")
    assert main(["fit", "twotone", "--data", str(data), "--out", out]) == 0
    fit = json.loads((tmp_path / "dip.json").read_text())
    assert fit["params"]["omega_e"]["value"] == pytest.approx(8.66e9, abs=1e6)
    assert fit["params"]["gamma"]["value"] == pytest.approx(102e6, rel=1e-2)


def test_fit_twotone_there_and_back_sweep(tmp_path):
    # the drive runs up and back down, so its first and last values are equal
    center, hwhm = 8.66, 0.102
    up = np.linspace(8.0, 9.3, 201)
    freqs = np.concatenate([up, up[::-1][1:]])
    resp = 1.0 - 0.5 * hwhm**2 / ((freqs - center) ** 2 + hwhm**2)
    data = tmp_path / "dip.csv"
    data.write_text(
        "freq_GHz,response\n"
        + "".join(f"{float(f)!r},{float(r)!r}\n" for f, r in zip(freqs, resp))
    )
    out = str(tmp_path / "dip.json")
    assert main(["fit", "twotone", "--data", str(data), "--out", out]) == 0
    fit = json.loads((tmp_path / "dip.json").read_text())
    assert fit["params"]["omega_e"]["value"] == pytest.approx(8.66e9, abs=1e6)
    assert fit["params"]["gamma"]["value"] == pytest.approx(102e6, rel=1e-2)


def test_fit_twotone_of_four_rows_is_underdetermined(tmp_path):
    # four rows fix the four dip parameters with no residual left over: the
    # fit runs, and says it has no covariance
    data = tmp_path / "dip.csv"
    data.write_text("freq_GHz,response\n8.5,1.0\n8.6,0.7\n8.7,0.6\n8.8,0.95\n")
    out = tmp_path / "dip.json"
    assert main(["fit", "twotone", "--data", str(data), "--out", str(out)]) == 0
    fit = json.loads(out.read_text())
    assert fit["flags"] == {"underdetermined": True}
    assert fit["covariance"] is None
    assert [p["sigma"] for p in fit["params"].values()] == [None] * 4


def test_calc_cooperativity_stdout_deterministic(capsys):
    argv = ["calc", "cooperativity", "--g-mhz", "118", "--kappa-mhz", "23",
            "--gamma2-mhz", "75"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["cooperativity"] == pytest.approx(32.28753623188406)


def test_calc_g(capsys):
    assert main(["calc", "g", "--coupling-length-nm", "2200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l_y_nm"] == pytest.approx(35.865, rel=1e-3)
    assert out["v_zpf_uV"] == pytest.approx(40.469, rel=1e-3)
    assert out["g_MHz"] == pytest.approx(
        CONSTANTS.e * out["l_y_nm"] * 1e-9 * out["v_zpf_uV"] * 1e-6
        / (CONSTANTS.hbar * 2.2e-6) / (1e6 * TWO_PI),
        rel=1e-6,
    )


def test_calc_cardano(capsys):
    assert main(["calc", "cardano", "--a1", "0", "--a2", "2750", "--ey", "300"]) == 0
    out = json.loads(capsys.readouterr().out)
    y_expect = (CONSTANTS.e * 300.0 / (4 * 2750.0)) ** (1 / 3) * 1e9
    assert out["y0_nm"] == pytest.approx(y_expect, rel=1e-9)
    assert out["regime"] == "single-real"
    assert out["f_trap_GHz"] > 0


def test_calc_purcell_and_spin(capsys):
    assert main(["calc", "purcell-res", "--g-mhz", "110", "--kappa-mhz", "23",
                 "--delta-ghz", "1.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t1_us"] == pytest.approx(0.6920536449242446, rel=1e-9)

    assert main(["calc", "purcell-bias", "--f-el-ghz", "5.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["t1_ms"] > 1.0
    assert out["filter_resonance_GHz"] == pytest.approx(1.6243683, rel=1e-6)

    assert main(["calc", "spin", "--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1",
                 "--ax-nm", "50", "--delta-cs-ghz", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["g_cs_MHz"] == pytest.approx(49.484198527224414, rel=1e-9)
    assert out["g_s_MHz"] == pytest.approx(2.969051911633465, rel=1e-9)


def test_calc_depression_and_dispersive(capsys):
    assert main(["calc", "depression", "--height-um", "3000", "--width-um", "1.4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["depression_nm"] == pytest.approx(2.765875, rel=1e-9)

    assert main(["calc", "dispersive", "--f-res-ghz", "7.162",
                 "--f-peak-ghz", "7.155", "--g-mhz", "118"]) == 0
    out = json.loads(capsys.readouterr().out)
    expect = 7.162e9 + (118e6) ** 2 / 7e6
    assert out["f_el_GHz"] == pytest.approx(expect / 1e9, rel=1e-9)


def test_qsolve_harmonic(tmp_path):
    a1 = 0.5 * CONSTANTS.m_e * (5.0 * GHZ) ** 2
    out = str(tmp_path / "levels.json")
    assert main(["qsolve", "--a1x", repr(a1), "--a1y", repr(a1), "--out", out]) == 0
    levels = json.loads((tmp_path / "levels.json").read_text())
    assert levels["f01_GHz"] == pytest.approx(5.0, rel=5e-3)
    assert max(levels["residuals"]) < 1e-8


def _maps_file(tmp_path, name="maps.json", gate=False, x_width=0.5):
    """A 21-node dome "trap", and with ``gate`` a wider dome "gate"."""
    n = 21
    axis = np.linspace(-1.0, 1.0, n)
    xx, yy = np.meshgrid(axis, axis)
    electrodes = {"trap": np.exp(-(xx / x_width) ** 2 - (yy / 0.4) ** 2).tolist()}
    if gate:
        electrodes["gate"] = np.exp(-(xx / 0.7) ** 2 - (yy / 0.6) ** 2).tolist()
    payload = {
        "x_axis_um": axis.tolist(),
        "y_axis_um": axis.tolist(),
        "electrodes": electrodes,
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _dome_maps_file(tmp_path):
    """The 81-node dome of the benchmark: lever arm exp(-x^2 - (y/0.7)^2)
    over +-1 um, with a Gaussian differential-coupling gradient."""
    axis = np.linspace(-1.0, 1.0, 81)
    xx, yy = np.meshgrid(axis, axis)
    payload = {
        "x_axis_um": axis.tolist(),
        "y_axis_um": axis.tolist(),
        "electrodes": {"trap": np.exp(-xx**2 - (yy / 0.7) ** 2).tolist()},
        "resonator_diff_grad_per_um": (0.15 * np.exp(-(xx**2 + yy**2) / 0.5)).tolist(),
    }
    path = tmp_path / "dome.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_sweep_shift_cli(tmp_path):
    maps = _maps_file(tmp_path)
    out = str(tmp_path / "shift.csv")
    argv = ["sweep", "shift", "--maps", maps, "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
            "--grad-per-um", "0.01", "--restarts", "2", "--out", out]
    assert main(argv) == 0
    lines = (tmp_path / "shift.csv").read_text().splitlines()
    assert lines[1].startswith("electrode,voltage_V")
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "trap"


def test_sweep_freq_cli(tmp_path):
    maps = _maps_file(tmp_path)
    out = str(tmp_path / "freq.csv")
    argv = ["sweep", "freq", "--maps", maps, "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
            "--nx", "25", "--ny", "25", "--k", "3", "--out", out]
    assert main(argv) == 0
    lines = (tmp_path / "freq.csv").read_text().splitlines()
    assert lines[1].startswith("voltage_V,f01_GHz")
    row = lines[2].split(",")
    assert float(row[1]) > 0


def test_sweep_freq_default_grid_matches_fine_reference(tmp_path):
    # f01 and f12 on the benchmark dome from the default 23 x 23 sinc grid,
    # against frozen sinc 45 x 45 values on the default window widened 1.6-fold
    # about its centre (1.3- and 2-fold windows and 51 x 51 nodes moved them by
    # at most 4e-6); the error measured 3.3e-6 on f01 and 1.4e-6 on f12, the
    # old 4th-order 61 x 61 default 2.1e-4 on f01
    out = tmp_path / "freq.csv"
    assert main(["sweep", "freq", "--maps", _dome_maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "2", "--out", str(out)]) == 0
    rows = _csv_rows(out)
    refs = ((47.17677250233896, 20.2131981265434), (51.68152796288015, 22.143884438107513))
    for row, (f01_ref_ghz, f12_ref_ghz) in zip(rows, refs):
        assert float(row["f01_GHz"]) == pytest.approx(f01_ref_ghz, rel=2e-5)
        assert float(row["f12_GHz"]) == pytest.approx(f12_ref_ghz, rel=2e-5)
        assert float(row["residual"]) < 1e-12


def test_map_cell_beyond_float_range_is_format_error(tmp_path, capsys):
    # json reads a cell of 1 and 400 zeros as an exact int, which no float
    # holds: a FormatError naming the electrode, not an OverflowError
    path = Path(_maps_file(tmp_path))
    payload = json.loads(path.read_text())
    payload["electrodes"]["trap"][3][4] = 10**400
    path.write_text(json.dumps(payload))
    assert main(["sweep", "freq", "--maps", str(path), "--electrode", "trap", "--vmin", "0.25",
                 "--vmax", "0.3", "--n", "2", "--out", str(tmp_path / "freq.csv")]) == 1
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [{
        "error": "FormatError",
        "message": "electrode 'trap' must be a rectangular array of numbers",
    }]


@pytest.mark.parametrize("argv", [
    ["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8", "--out", "levels.json"],
    ["sweep", "freq", "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
     "--out", "freq.csv"],
], ids=["qsolve", "sweep-freq"])
def test_dense_grid_over_node_cap_is_one_error(tmp_path, monkeypatch, capsys, argv):
    # 51 x 51 = 2601 nodes is over the 2500-node cap of a sinc grid;
    # the sweep stops before its first point instead of writing failed rows
    monkeypatch.chdir(tmp_path)
    if argv[0] == "sweep":
        argv = argv + ["--maps", _maps_file(tmp_path)]
    assert main(argv + ["--nx", "51", "--ny", "51"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "DomainError",
        "message": "a sinc grid holds at most 2500 nodes, got 51 x 51 = 2601",
    }
    assert [p.name for p in tmp_path.iterdir()] in ([], ["maps.json"])


def test_unallocatable_size_is_one_error(tmp_path, monkeypatch, capsys):
    # an allocation that fails inside a worker: sizes past the caps never get
    # there (test_size_over_cap_is_refused_up_front)
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr(cavity, "synthesize_trace", out_of_memory)
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--points", "11", "--out", "trace.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "MemoryError"
    assert list(tmp_path.iterdir()) == []


def _must_not_run(*args, **kwargs):
    pytest.fail("a size over its cap reached the worker")


@pytest.mark.parametrize("command, size", [
    ("synth", cli.MAX_PROBE_POINTS + 1),
    ("synth", 10**15),
    ("sweep-freq", cli.MAX_SWEEP_POINTS + 1),
    ("sweep-shift", cli.MAX_SWEEP_POINTS + 1),
])
def test_size_over_cap_is_refused_up_front(tmp_path, monkeypatch, capsys, command, size):
    # one DomainError line before the worker runs or the axis is allocated
    monkeypatch.setattr(cavity, "synthesize_trace", _must_not_run)
    monkeypatch.setattr(qsolver, "frequency_vs_voltage", _must_not_run)
    monkeypatch.setattr(cluster, "shift_vs_voltage_sweep", _must_not_run)
    monkeypatch.chdir(tmp_path)
    if command == "synth":
        argv, cap = ["synth", "--points", str(size), "--out", "trace.csv"], cli.MAX_PROBE_POINTS
    else:
        argv = ["sweep", command.split("-")[1], "--maps", _maps_file(tmp_path),
                "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.3", "--n", str(size),
                "--out", "sweep.csv"]
        cap = cli.MAX_SWEEP_POINTS
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [err] = [json.loads(line) for line in captured.err.splitlines()]
    assert err["error"] == "DomainError"
    assert str(cap) in err["message"] and str(size) in err["message"]
    assert [p.name for p in tmp_path.iterdir()] in ([], ["maps.json"])


def test_sweep_shift_restarts_over_batch_cap_is_one_error(tmp_path, monkeypatch, capsys):
    # 10^9 restarts would be 32 GB of 2 x 2 Hessians: refused before any descent
    monkeypatch.setattr(cluster, "minimize", _must_not_run)
    out = tmp_path / "shift.csv"
    code = main(["sweep", "shift", "--maps", _maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "2", "--grad-per-um", "0.01",
                 "--restarts", "1000000000", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    [err] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err["error"] == "DomainError"
    assert str(32 * 10**9) in err["message"] and str(cluster.MAX_BATCH_BYTES) in err["message"]


@pytest.mark.parametrize("nx", ["0", "2"])
@pytest.mark.parametrize("command", ["qsolve", "sweep-freq"])
def test_grid_under_three_nodes_is_one_error(tmp_path, monkeypatch, capsys, command, nx):
    # one grid check in both commands: the sweep stops before its first point
    # instead of writing a failed row per point, and before its k check
    monkeypatch.chdir(tmp_path)
    if command == "qsolve":
        argv = ["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8", "--out", "levels.json"]
    else:
        argv = ["sweep", "freq", "--maps", _maps_file(tmp_path), "--electrode", "trap",
                "--vmin", "0.25", "--vmax", "0.3", "--n", "2", "--out", "freq.csv"]
    assert main(argv + ["--nx", nx, "--ny", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "DomainError", "message": "need at least 3 nodes per axis"}]
    assert [p.name for p in tmp_path.iterdir()] in ([], ["maps.json"])


@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 3)])
@pytest.mark.parametrize("command", ["freq", "shift"])
def test_map_under_four_nodes_per_axis_is_one_error(tmp_path, capsys, command, nx, ny):
    # refused when the maps load, before any spline is fit: one FormatError
    # line instead of FITPACK's traceback, and no output file
    axis_x, axis_y = np.linspace(-1.0, 1.0, nx), np.linspace(-1.0, 1.0, ny)
    maps = tmp_path / "maps.json"
    maps.write_text(json.dumps({"x_axis_um": axis_x.tolist(), "y_axis_um": axis_y.tolist(),
                                "electrodes": {"trap": np.full((ny, nx), 0.5).tolist()}}))
    argv = ["sweep", command, "--maps", str(maps), "--electrode", "trap", "--vmin", "0.25",
            "--vmax", "0.3", "--n", "2", "--out", str(tmp_path / "sweep.csv")]
    assert main(argv + (["--grad-per-um", "0.01"] if command == "shift" else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [{
        "error": "FormatError",
        "message": f"coupling maps need at least 4 nodes per axis for a bicubic spline, "
                   f"got a {nx} x {ny} grid"}]
    assert [p.name for p in tmp_path.iterdir()] == ["maps.json"]


def test_compensate_of_deeply_nested_sidecar_metadata_is_one_error(tmp_path, monkeypatch,
                                                                  capsys):
    # metadata nested 5000 deep parses, but the sidecar writer cannot copy it
    # back: the target's sidecar is refused by name when it is read, and
    # neither the CSV nor its sidecar is written
    monkeypatch.chdir(tmp_path)
    assert main(_synth_args("far.csv", seed=1)) == 0
    assert main(_synth_args("target.csv", kind="rabi", seed=2)) == 0
    depth = 5000
    (tmp_path / "target.csv.json").write_text(
        '{"metadata": {"deep": ' + "[" * depth + "]" * depth + "}}")
    assert main(["compensate", "--far", "far.csv", "--target", "target.csv",
                 "--out", "comp.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [err] = [json.loads(line) for line in captured.err.splitlines()]
    assert err["error"] == "FormatError"
    assert "target.csv.json" in err["message"]
    assert not list(tmp_path.glob("comp.csv*"))


@pytest.mark.parametrize("depth, written", [(254, True), (255, False)])
def test_sidecar_metadata_reads_as_deep_as_it_writes(tmp_path, monkeypatch, capsys, depth,
                                                      written):
    # the writer nests at most 255 levels, the sidecar's object and 254 of
    # metadata: the deepest metadata read is copied into the compensated
    # trace's sidecar unchanged, and one level more is refused at read
    monkeypatch.chdir(tmp_path)
    assert main(_synth_args("far.csv", seed=1)) == 0
    assert main(_synth_args("target.csv", kind="rabi", seed=2)) == 0
    metadata = "[" * (depth - 1) + "3" + "]" * (depth - 1)
    (tmp_path / "target.csv.json").write_text('{"metadata": {"deep": ' + metadata + "}}")
    capsys.readouterr()
    assert main(["compensate", "--far", "far.csv", "--target", "target.csv",
                 "--out", "comp.csv"]) == (0 if written else 1)
    if written:
        copied = json.loads((tmp_path / "comp.csv.json").read_text())["metadata"]["deep"]
        assert copied == json.loads(metadata)
    else:
        [err] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert err["error"] == "FormatError"
        assert err["message"].startswith("trace sidecar target.csv.json: 'metadata' cannot "
                                         "be written back (")
        assert not list(tmp_path.glob("comp.csv*"))


_UNDECODABLE = os.fsdecode(b"tr\xffce")  # argv's spelling of a byte that is no UTF-8


@pytest.mark.parametrize("command", ["synth", "qsolve"])
def test_undecodable_byte_in_a_path_argument_still_works(tmp_path, capsys, command):
    # the file is written under the name given, and its config echo is JSON
    out = str(tmp_path / f"{_UNDECODABLE}.csv")
    argv = (["synth", "--points", "11"] if command == "synth"
            else ["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8", "--k", "3"])
    assert main(argv + ["--out", out]) == 0
    assert os.path.exists(os.fsencode(out))
    with open(os.fsencode(out), encoding="utf-8") as fh:
        text = fh.read()
    if command == "synth":
        assert json.loads(text.splitlines()[0].removeprefix("# config: "))
        with open(os.fsencode(out + ".json"), encoding="utf-8") as fh:
            assert json.load(fh)["config"]
    else:
        assert json.loads(text)["config"]


def test_config_echo_spells_an_undecodable_argv_byte_as_its_escape(tmp_path):
    # each string option, alone or in a list, is valid UTF-8 in every echo
    out = str(tmp_path / f"{_UNDECODABLE}.csv")
    assert main(["synth", "--points", "11", "--out", out]) == 0
    with open(os.fsencode(out + ".json"), encoding="utf-8") as fh:
        options = json.load(fh)["config"]["options"]
    assert options["out"] == str(tmp_path / "tr\\xffce.csv")
    args = argparse.Namespace(voltage=[f"{_UNDECODABLE}=1", "gate=2"], n=3)
    assert cli._resolved(args)["options"] == {"n": 3, "voltage": ["tr\\xffce=1", "gate=2"]}


def test_seed_beyond_64_bits_is_usage_error(tmp_path, capsys):
    # the config echo writes the seed as a JSON number, at most 2**64 - 1
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--seed", str(2**64), "--out", str(out)]) == 1
    [err] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err["error"] == "UsageError"
    assert not list(tmp_path.iterdir())
    assert main(["synth", "--points", "11", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert json.loads(Path(f"{out}.json").read_text())["config"]["options"]["seed"] == 2**64 - 1


def test_seed_that_is_no_integer_is_usage_error(tmp_path, capsys):
    assert main(["synth", "--points", "11", "--seed", "abc",
                 "--out", str(tmp_path / "trace.csv")]) == 1
    [err] = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err["error"] == "UsageError"
    assert "'abc'" in err["message"]
    assert not list(tmp_path.iterdir())


def test_qsolve_flags_edge_minimum(capsys):
    # a1x < 0 puts the x minimum on the window edge: the levels are printed,
    # flagged as in the sweep's flags column; the x window, sized from a
    # negative curvature, is cut to the scan region too
    assert main(["qsolve", "--a1x=-1e-9", "--a1y", "1e-9", "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"] == ["edge_minimum", "window_clipped"]
    assert main(["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8", "--k", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["flags"] == []


@pytest.mark.parametrize("a1y", ["-1e-14", "0", "1e-15"])
def test_qsolve_flags_a_clipped_window(capsys, a1y):
    # a 20 GHz x mode and a very soft quartic y trap: 8 zero-point lengths of
    # y reach past the top of the scan region, so the window is cut there,
    # the levels may not be resolved, and qsolve says so
    assert main(["qsolve", "--a1x=7.192481077722885e-09", f"--a1y={a1y}", "--a2y", "1",
                 "--ey", "10", "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["window_um"][3] == 2.0
    assert out["flags"] == ["window_clipped"]


def test_qsolve_resolves_the_soft_mode_at_the_floor(capsys):
    # a 20 GHz x mode and a quartic y trap near the frequency floor: the
    # window is centred on the true minimum, so it stays inside the scan
    # region and the soft y mode sets f01 (13.81 GHz on 23 x 61 nodes and
    # more); a window cut to the region reports the 20 GHz x mode instead
    assert main(["qsolve", "--a1x=7.192481077722885e-09", "--a1y=-1e-14", "--a2y", "1e6",
                 "--ey", "10", "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"] == []
    assert -2.0 < out["window_um"][2] and out["window_um"][3] < 2.0
    assert out["f01_GHz"] == pytest.approx(13.81, rel=0.05)


def _run_python(script, cwd=None):
    """stdout of a fresh interpreter running script on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip()


_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def test_cli_import_loads_no_scipy():
    # every module imports scipy where a command uses it, so importing the
    # command line, which imports every module, loads none of it
    assert _run_python("import sys, heliumdot.cli\n" + _SCIPY_MODULES) == "[]"
    # nor orjson, which the JSON reader imports on its first file
    assert _run_python("import sys, heliumdot.cli\nprint('orjson' in sys.modules)") == "False"


def test_commands_import_scipy_only_where_they_use_it(tmp_path):
    # synth, calc and a QuarticField qsolve, which Davidson solves, run on
    # numpy alone; compensate, fit and the map commands import scipy as they
    # go, and each deferred import still resolves in a fresh process
    maps = _dome_maps_file(tmp_path)  # with a gradient map, so both spline builds run
    bare = _synth_args("far.csv", seed=1004)
    coupled = _synth_args("trace.csv", kind="rabi", seed=4)
    numpy_only = ("import sys\nfrom heliumdot.cli import main\n"
                  f"for argv in ({bare!r}, {coupled!r},\n"
                  "             ['calc', 'g', '--coupling-length-nm', '2200'],\n"
                  "             ['calc', 'cardano', '--a1', '0', '--a2', '2750', '--ey', '300'],\n"
                  "             ['qsolve', '--a1x', '1.1e-8', '--a1y', '2e-8', '--k', '3']):\n"
                  "    assert main(argv) == 0, argv\n" + _SCIPY_MODULES)
    assert _run_python(numpy_only, cwd=tmp_path).splitlines()[-1] == "[]"
    with_scipy = ("import sys\nfrom heliumdot.cli import main\n"
                  "for argv in (['compensate', '--far', 'far.csv', '--target', 'trace.csv',\n"
                  "              '--out', 'comp.csv'],\n"
                  "             ['fit', 'rabi', '--trace', 'comp.csv', '--far', 'far.csv',\n"
                  "              '--out', 'fit.json']):\n"
                  "    assert main(argv) == 0, argv\n"
                  "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))\n"
                  f"for argv in (['sweep', 'freq', '--maps', {maps!r}, '--electrode', 'trap',\n"
                  "              '--vmin', '0.3', '--vmax', '0.3', '--n', '1',\n"
                  "              '--out', 'freq.csv'],\n"
                  f"             ['sweep', 'shift', '--maps', {maps!r}, '--electrode', 'trap',\n"
                  "              '--vmin', '0.3', '--vmax', '0.3', '--n', '1',\n"
                  "              '--restarts', '2', '--out', 'shift.csv']):\n"
                  "    assert main(argv) == 0, argv\n")
    # the readout fits load scipy.optimize alone: no peak search, no scipy.stats
    assert _run_python(with_scipy, cwd=tmp_path).splitlines()[0] == "[]"
    assert {p.name for p in tmp_path.iterdir()} >= {"comp.csv", "fit.json", "freq.csv",
                                                    "shift.csv"}


_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("threads", ["pinned", "default"])
def test_level_commands_rerun_byte_identical_per_blas_threads(tmp_path, threads):
    # Davidson's small products, the residuals and any fallback LU run in
    # BLAS, which splits the work over the default thread count unless one
    # thread is pinned; each run is a new process, which reads the setting
    # at import
    maps = _dome_maps_file(tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in _PINNED}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    if threads == "pinned":
        env.update(_PINNED)
    script = ("from heliumdot.cli import main\n"
              "assert main(['qsolve', '--a1x', '1.1e-8', '--a1y', '2e-8', '--seed', '4',"
              " '--out', 'levels.json']) == 0\n"
              f"assert main(['sweep', 'freq', '--maps', {maps!r}, '--electrode', 'trap',"
              " '--vmin', '0.2', '--vmax', '0.3', '--n', '3', '--seed', '4',"
              " '--out', 'freq.csv']) == 0\n")
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        subprocess.run([sys.executable, "-c", script], cwd=tmp_path / run, env=env, check=True,
                       timeout=120)
    for name in ("levels.json", "freq.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_freq_rerun_byte_identical(tmp_path, monkeypatch):
    # every point is solved on its own, the same way on every run
    argv = ["sweep", "freq", "--maps", _maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.35", "--n", "3", "--seed", "3",
            "--out", "freq.csv"]
    texts = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        texts.append((tmp_path / name / "freq.csv").read_bytes())
    assert texts[0] == texts[1]


def test_missing_input_reports_json_error(tmp_path, capsys):
    code = main(["fit", "bare", "--trace", str(tmp_path / "nope.csv")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload and "message" in payload


@pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]", '{"metadata": 5}'])
def test_malformed_trace_sidecar_reports_json_error(tmp_path, capsys, sidecar):
    far = str(tmp_path / "far.csv")
    target = str(tmp_path / "target.csv")
    main(_synth_args(far))
    main(_synth_args(target, kind="rabi"))
    (tmp_path / "target.csv.json").write_text(sidecar)
    code = main(["compensate", "--far", far, "--target", target,
                 "--out", str(tmp_path / "comp.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def test_empty_twotone_data_reports_json_error(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("freq_GHz,response\n")
    code = main(["fit", "twotone", "--data", str(data),
                 "--out", str(tmp_path / "dip.json")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_underdetermined_twotone_data_reports_json_error(tmp_path, capsys, rows):
    # fewer rows than the 4 Lorentzian parameters
    data = tmp_path / "short.csv"
    data.write_text("freq_GHz,response\n" + "".join(
        f"{8.6 + 0.01 * i!r},{1.0 - 0.1 * i!r}\n" for i in range(rows)
    ))
    code = main(["fit", "twotone", "--data", str(data),
                 "--out", str(tmp_path / "dip.json")])
    assert code == 1
    assert not (tmp_path / "dip.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "FitError"


@pytest.mark.parametrize("argv", [
    ["synth", "--format", "xml"],
    ["synth", "--format", "json", "--out", "t.json"],
    ["synth", "--bogus"],
    ["fit", "bare"],
    ["synth", "--points", "abc"],
    [],
])
def test_usage_error_reports_json_error(tmp_path, monkeypatch, capsys, argv):
    # a bad choice, the dropped json format, an unknown flag, a missing
    # required argument, a bad type, and no command at all
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    assert "--format" in capsys.readouterr().out


@pytest.mark.parametrize("what, data, argv", [
    ("config", b"\xff\xfe{}",
     ["calc", "depression", "--height-um", "1", "--width-um", "5", "--config", "in"]),
    ("trace", b"freq_GHz,re_s21,im_s21\n7.0,1.0,0.0\n7.1,1.\xff,0.0\n",
     ["fit", "bare", "--trace", "in"]),
], ids=["config", "trace"])
def test_non_utf8_input_reports_json_error(tmp_path, monkeypatch, capsys, what, data, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").write_bytes(data)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "FormatError", "message": f"{what} in: not UTF-8 text"}
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


def test_parser_reuse_drops_appended_voltages(tmp_path, capsys):
    argv = ["sweep", "freq", "--maps", _maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.25", "--n", "1", "--nx", "21", "--ny", "21",
            "--k", "3", "--out", str(tmp_path / "freq.csv")]
    # the maps have no electrode "a": kept from the first call, the voltage
    # would fail the second one too
    assert main(argv + ["--voltage", "a=1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert main(argv) == 0
    config = (tmp_path / "freq.csv").read_text().splitlines()[0].removeprefix("# config: ")
    assert "voltage" not in json.loads(config)["options"]
    assert _csv_rows(tmp_path / "freq.csv")[0]["flags"] == ""


def test_parser_reuse_restores_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    base = ["synth", "--f-el-ghz", "7.162", "--points", "11"]
    assert main(base + ["--g-mhz", "118", "--gamma2-mhz", "60"]) == 0
    narrow = (tmp_path / "trace.csv").read_bytes()
    assert main(base + ["--g-mhz", "118"]) == 0
    default = (tmp_path / "trace.csv").read_bytes()
    assert main(base + ["--g-mhz", "118", "--gamma2-mhz", "75"]) == 0
    assert default == (tmp_path / "trace.csv").read_bytes() != narrow
    options = json.loads((tmp_path / "trace.csv.json").read_text())["config"]["options"]
    assert options["gamma2_mhz"] == 75.0
    # nor is the --g-mhz of an earlier call kept
    assert main(base) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"


@pytest.mark.parametrize("first", [
    ["synth", "--bogus"],
    ["synth", "--points", "11", "--points", "abc"],
    ["sweep", "freq", "--voltage", "a=1"],
])
def test_parser_reuse_after_usage_error(tmp_path, capsys, first):
    assert main(first) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--out", str(out)]) == 0
    assert len(read_trace(str(out)).probe) == 11


def test_parser_reuse_after_help(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--out", str(out)]) == 0
    assert len(read_trace(str(out)).probe) == 11


def test_main_looks_up_build_parser_on_every_call(tmp_path, monkeypatch):
    # the benchmark's traced run wraps cli.build_parser by name
    assert cli.build_parser() is cli.build_parser()
    calls = []

    def counting():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    for k in range(2):
        assert main(["synth", "--points", "11", "--out", str(tmp_path / f"t{k}.csv")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("restarts", ["0", "-5"])
def test_sweep_shift_rejects_nonpositive_restarts(tmp_path, capsys, restarts):
    maps = _maps_file(tmp_path)
    out = tmp_path / "shift.csv"
    code = main(["sweep", "shift", "--maps", maps, "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "2",
                 "--grad-per-um", "0.01", "--restarts", restarts, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


@pytest.mark.parametrize("kind, n, vmax", [
    ("shift", "-1", "0.3"), ("freq", "-1", "0.3"), ("freq", "0", "0.3"), ("freq", "2", "inf"),
])
def test_sweep_rejects_bad_voltage_axis(tmp_path, capsys, kind, n, vmax):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", kind, "--maps", _maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", vmax, "--n", n, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ["synth", "--snr", "50"],
    ["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8", "--nx", "9", "--ny", "9"],
    ["sweep", "freq", "--nx", "9", "--ny", "9"],
    ["sweep", "shift"],
], ids=["synth", "qsolve", "sweep-freq", "sweep-shift"])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "sweep":
        argv = argv + ["--maps", _maps_file(tmp_path), "--electrode", "trap",
                       "--vmin", "0.25", "--vmax", "0.3", "--n", "2"]
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert [p.name for p in tmp_path.iterdir()] in ([], ["maps.json"])


@pytest.mark.parametrize("k", ["2", "25"])
def test_sweep_freq_rejects_k_out_of_range(tmp_path, capsys, k):
    # k < 3 has no f12; k > 20 exceeds what eigenstates solves at any grid
    out = tmp_path / "freq.csv"
    code = main(["sweep", "freq", "--maps", _maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "2", "--k", k, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "DomainError"


def test_format_flag_only_on_synth():
    args = build_parser().parse_args(["calc", "g", "--coupling-length-nm", "5"])
    assert "format" not in vars(args)


def test_bad_voltage_spec_reports_error(tmp_path, capsys):
    maps = _maps_file(tmp_path)
    code = main(["sweep", "shift", "--maps", maps, "--electrode", "trap",
                 "--vmin", "0", "--vmax", "1", "--n", "2",
                 "--voltage", "guardhalf", "--grad-per-um", "0.01"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def test_non_numeric_voltage_reports_error(tmp_path, capsys):
    code = main(["sweep", "freq", "--maps", _maps_file(tmp_path), "--electrode", "trap",
                 "--vmin", "0.25", "--vmax", "0.3", "--n", "1", "--nx", "5", "--ny", "5",
                 "--voltage", "trap=abc"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


def test_qsolve_float_overflow_is_one_json_error(capsys):
    # a finite but huge curvature overflows the sampled potential
    argv = ["qsolve", "--a1x", "1e308", "--a1y", "1e-8", "--nx", "5", "--ny", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "FloatingPointError"


def _strict_json(text):
    """json.loads that rejects the NaN/Infinity tokens JSON does not allow."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_nonfinite_outputs_print_strict_json(capsys):
    # g = 0 gives no Purcell decay (T1 = inf); g = inf gives C = inf
    assert main(["calc", "purcell-res", "--g-mhz", "0", "--kappa-mhz", "1",
                 "--delta-ghz", "1"]) == 0
    assert _strict_json(capsys.readouterr().out)["t1_us"] is None
    assert main(["calc", "cooperativity", "--g-mhz", "inf", "--kappa-mhz", "23",
                 "--gamma2-mhz", "75"]) == 0
    assert _strict_json(capsys.readouterr().out)["cooperativity"] is None


@pytest.mark.parametrize("snr", ["-inf", "0", "-1"])
def test_synth_refuses_snr_not_above_zero(tmp_path, capsys, snr):
    # only +inf means noiseless: -inf is refused like 0 and -1, not read as inf
    out = tmp_path / "trace.csv"
    assert main(["synth", f"--snr={snr}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert _strict_json(err[0])["error"] == "DomainError"
    assert not out.exists()


def test_nan_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["synth", "--snr", "nan", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert _strict_json(err[0])["error"] == "UsageError"
    assert not out.exists()
    # cooperativity with a NaN coupling used to print a bare NaN token
    assert main(["calc", "cooperativity", "--g-mhz", "nan", "--kappa-mhz", "23",
                 "--gamma2-mhz", "75"]) == 1
    assert _strict_json(capsys.readouterr().err)["error"] == "UsageError"


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_synth_rejects_too_few_points(tmp_path, capsys, points):
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", points, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "DomainError"
    assert not out.exists()


def _config_file(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_config_int_beyond_float_range_is_format_error(tmp_path, capsys):
    # an int JSON number too large for a float is not a finite number: it is
    # refused by name, not left to overflow in float()
    cfg = tmp_path / "config.json"
    cfg.write_text('{"resonator": {"l_r": 1' + "0" * 400 + "}}")
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "FormatError"
    assert "resonator.l_r" in json.loads(err[0])["message"]


def test_config_constants_and_resonator_flags_combine(tmp_path, capsys):
    cfg = {"constants": {"m_e": 1.8e-30}, "resonator": {"l_r": 85e-9}}
    assert main(["calc", "g", "--coupling-length-nm", "2200", "--f-res-ghz", "5",
                 "--config", _config_file(tmp_path, cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f_res_GHz"] == pytest.approx(5.0, rel=1e-12)
    res = core.ResonatorParams.from_mode(5.0 * GHZ, core.default_resonator().impedance)
    consts = dataclasses.replace(CONSTANTS, m_e=1.8e-30)
    expect = analytic.coupling_g(res, 2.2e-6, constants=consts)
    assert out["g_MHz"] == pytest.approx(expect.g / (1e6 * TWO_PI), rel=1e-12)
    assert out["impedance_ohm"] == pytest.approx(expect.impedance, rel=1e-12)


def test_config_kappa_flags_apply_on_top_of_resonator_section(tmp_path, monkeypatch):
    cfg = _config_file(tmp_path, {"resonator": {"kappa_2": 1e6, "kappa_int": 2e6}})
    seen = []
    synthesize = cavity.synthesize_trace
    monkeypatch.setattr(cavity, "synthesize_trace",
                        lambda res, *a, **kw: seen.append(res) or synthesize(res, *a, **kw))
    assert main(["synth", "--points", "11", "--config", cfg, "--kappa1-mhz", "3",
                 "--out", str(tmp_path / "trace.csv")]) == 0
    (res,) = seen
    assert res.kappa_1 == pytest.approx(3e6 * TWO_PI)
    assert (res.kappa_2, res.kappa_int) == (1e6, 2e6)
    assert (res.l_r, res.c_r) == (85e-9, 5.8e-15)


@pytest.mark.parametrize("argv, key", [
    (["calc", "cardano", "--a1", "0", "--a2", "2750", "--ey", "300"], "y0_nm"),
    (["calc", "spin", "--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1", "--ax-nm", "50",
      "--delta-cs-ghz", "2"], "g_cs_MHz"),
    (["calc", "depression", "--height-um", "3000", "--width-um", "1.4"], "depression_nm"),
    (["calc", "purcell-bias", "--f-el-ghz", "5.0"], "c_c_fF"),
])
def test_config_constants_reach_calc(tmp_path, capsys, argv, key):
    # doubling the one constant of each closed form it reads moves the result
    name = {"cardano": "e", "spin": "mu_b", "depression": "rho_he", "purcell-bias": "e"}[argv[1]]
    cfg = _config_file(tmp_path, {"constants": {name: 2 * getattr(CONSTANTS, name)}})
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)[key]
    assert main(argv + ["--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)[key] != pytest.approx(plain, rel=0.1)


def test_config_constants_reach_qsolve_and_sweeps(tmp_path, capsys):
    # four times the electron mass halves every classical mode frequency and
    # the harmonic level spacing
    cfg = _config_file(tmp_path, {"constants": {"m_e": 4 * CONSTANTS.m_e}})
    a1 = repr(0.5 * CONSTANTS.m_e * (5.0 * GHZ) ** 2)
    qsolve = ["qsolve", "--a1x", a1, "--a1y", a1, "--nx", "25", "--ny", "25", "--k", "3"]
    assert main(qsolve) == 0
    plain = json.loads(capsys.readouterr().out)["f01_GHz"]
    assert main(qsolve + ["--config", cfg]) == 0
    heavy = json.loads(capsys.readouterr().out)["f01_GHz"]
    assert heavy / plain == pytest.approx(0.5, rel=1e-2)

    maps = _maps_file(tmp_path)
    sweep = ["--maps", maps, "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.25",
             "--n", "1"]
    rows = {}
    for name, extra in (("plain", []), ("heavy", ["--config", cfg])):
        out = tmp_path / f"shift_{name}.csv"
        assert main(["sweep", "shift", *sweep, "--grad-per-um", "0.01", "--restarts", "1",
                     "--out", str(out), *extra]) == 0
        modes = out.read_text().splitlines()[2].split(",")[3]
        rows[name] = [float(f) for f in modes.split(";")]
        out = tmp_path / f"freq_{name}.csv"
        assert main(["sweep", "freq", *sweep, "--nx", "41", "--ny", "41", "--k", "3",
                     "--out", str(out), *extra]) == 0
        rows[name + "_f01"] = float(out.read_text().splitlines()[2].split(",")[1])
    assert np.allclose(np.array(rows["heavy"]) / rows["plain"], 0.5, rtol=1e-6)
    assert rows["heavy_f01"] / rows["plain_f01"] == pytest.approx(0.5, rel=0.1)


def test_fit_json_carries_flags_and_covariance(tmp_path):
    trace = str(tmp_path / "far.csv")
    main(_synth_args(trace) + ["--snr", "50"])
    out = tmp_path / "fit.json"
    assert main(["fit", "bare", "--trace", trace, "--out", str(out)]) == 0
    fit = _strict_json(out.read_text())
    assert fit["flags"]["window_points"] > 10
    cov = fit["covariance"]
    assert sorted(cov) == sorted(fit["params"])
    for name, p in fit["params"].items():
        # the diagonal is sigma^2 in the file's units (Hz^2 for angular rates)
        assert cov[name][name] == pytest.approx(p["sigma"] ** 2, rel=1e-12)
    assert cov["omega_r"]["t"] == pytest.approx(cov["t"]["omega_r"], rel=1e-12)


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_synth_config_line_is_strict_json(tmp_path):
    # the default --snr is inf: the config line says null, like the sidecar
    out = tmp_path / "trace.csv"
    assert main(["synth", "--points", "11", "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    config = _strict_json(first[len("# config: "):])
    assert config["options"]["snr"] is None
    assert config == _strict_json((tmp_path / "trace.csv.json").read_text())["config"]


def test_calc_cardano_huge_quartic_without_float_warning(capsys):
    # 12 a2 alone overflows to inf, and inf * y0^2 with y0 = 0 is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["calc", "cardano", "--a1", "0", "--a2", "1e308", "--ey", "0"]) == 0
    assert _strict_json(capsys.readouterr().out)["f_trap_GHz"] is None


@pytest.mark.parametrize("flag", ["--a1x", "--a2y", "--ex"])
def test_qsolve_rejects_nonfinite_field(capsys, flag):
    argv = ["qsolve", "--a1x", "1e-3", "--a1y", "1e-3", "--nx", "5", "--ny", "5", flag, "inf"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "DomainError"


@pytest.mark.parametrize("kind, fixed", [
    ("freq", ["--ex", "inf"]), ("freq", ["--ey=-inf"]), ("freq", ["--voltage", "gate=nan"]),
    ("shift", ["--ex", "inf"]), ("shift", ["--voltage", "gate=inf"]),
], ids=["freq-ex", "freq-ey", "freq-voltage-nan", "shift-ex", "shift-voltage-inf"])
def test_sweep_refuses_nonfinite_fixed_input(tmp_path, capsys, kind, fixed):
    # a fixed input that is not finite fails every point alike, so it is one
    # error before the first point, as in qsolve, not a failed row each
    out = tmp_path / "sweep.csv"
    extra = {"freq": ["--nx", "5", "--ny", "5", "--k", "3"], "shift": ["--grad-per-um", "0.01"]}
    argv = ["sweep", kind, "--maps", _maps_file(tmp_path, gate=True), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2", *extra[kind], *fixed,
            "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "DomainError"


@pytest.mark.parametrize("kind", ["freq", "shift"])
def test_sweep_of_one_point_refuses_a_second_bound(tmp_path, capsys, kind):
    # --n 1 sweeps --vmin alone: a different --vmax would be dropped
    out = tmp_path / "sweep.csv"
    argv = ["sweep", kind, "--maps", _maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.35", "--n", "1", "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "UsageError", "message": (
        "--n 1 sweeps the one voltage --vmin, so --vmax must equal it")}


def test_sweep_shift_records_failed_point(tmp_path, capsys):
    # at 0 V the dome is flat: the modes vanish and the coupled spectrum collapses
    out = tmp_path / "shift.csv"
    argv = ["sweep", "shift", "--maps", _maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0", "--vmax", "0.3", "--n", "2", "--grad-per-um", "0.01",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    flat, trap = _csv_rows(out)
    assert flat["delta_omega_r_over_2pi_MHz"] == "nan"
    assert flat["converged"] == "false"
    assert trap["converged"] == "true"
    assert math.isfinite(float(trap["delta_omega_r_over_2pi_MHz"]))


def test_sweep_shift_names_failed_point(tmp_path, capsys):
    out = tmp_path / "shift.csv"
    argv = ["sweep", "shift", "--maps", _dome_maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0", "--vmax", "0.3", "--n", "2", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    flat, trap = _csv_rows(out)
    assert flat["flags"] == "failed:DomainError"
    assert trap["flags"] == ""
    assert trap["converged"] == "true"


def test_sweep_shift_records_float_range_voltage(tmp_path, capsys):
    # at 1e308 V the spline gradient overflows to inf: that point fails alone
    out = tmp_path / "shift.csv"
    argv = ["sweep", "shift", "--maps", _maps_file(tmp_path), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "1e308", "--n", "2", "--grad-per-um", "0.01",
            "--restarts", "2", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    trap, huge = _csv_rows(out)
    assert trap["converged"] == "true"
    assert huge["converged"] == "false"
    assert huge["flags"] == "failed:DomainError"



def _data_rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]


@pytest.mark.parametrize("kind, vmax", [("freq", "1e100"), ("shift", "1e250")])
def test_sweep_records_float_error_per_point(tmp_path, capsys, kind, vmax):
    # on the benchmark dome a huge voltage trips a numpy float error (a
    # FloatingPointError under main's errstate) inside that point's solve:
    # the point fails alone, and the 0.25 V point reads as if swept alone
    common = ["sweep", kind, "--maps", _dome_maps_file(tmp_path), "--electrode", "trap",
              "--vmin", "0.25"]
    out, alone = tmp_path / "sweep.csv", tmp_path / "alone.csv"
    assert main([*common, "--vmax", vmax, "--n", "2", "--out", str(out)]) == 0
    assert main([*common, "--vmax", "0.25", "--n", "1", "--out", str(alone)]) == 0
    assert capsys.readouterr().err == ""
    assert _data_rows(out)[0] == _data_rows(alone)[0]
    trap, huge = _csv_rows(out)
    assert huge["flags"].split(";")[-1] == "failed:FloatingPointError"
    assert trap["flags"] == ""


@pytest.mark.parametrize("kind", ["freq", "shift"])
@pytest.mark.parametrize("names", [["--electrode", "nosuch"],
                                   ["--electrode", "trap", "--voltage", "bogus=1"]],
                         ids=["electrode", "voltage"])
def test_sweep_rejects_unknown_electrode(tmp_path, capsys, kind, names):
    # an unknown name is one error before the first point, not a failed row each
    out = tmp_path / "sweep.csv"
    extra = {"freq": ["--nx", "5", "--ny", "5", "--k", "3"], "shift": ["--grad-per-um", "0.01"]}
    code = main(["sweep", kind, "--maps", _maps_file(tmp_path), *names, "--vmin", "0.25",
                 "--vmax", "0.3", "--n", "2", *extra[kind], "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "DomainError",
        "message": f"unknown electrodes ['{names[-1].partition('=')[0]}']; the maps define ['trap']",
    }


@pytest.mark.parametrize("flag", [["--f-res-ghz", "3"], ["--kappa1-mhz", "4"],
                                  ["--kappa2-mhz", "4"], ["--kappa-int-mhz", "1"],
                                  ["--config", "config.json"]],
                         ids=lambda flag: flag[0])
def test_fit_rabi_far_rejects_resonator_flags(tmp_path, monkeypatch, capsys, flag):
    # the far trace calibrates the resonator: these flags would be dropped
    monkeypatch.chdir(tmp_path)
    _config_file(tmp_path, {"resonator": {"l_r": 85e-9}})
    main(_synth_args("far.csv"))
    main(_synth_args("target.csv", kind="rabi"))
    capsys.readouterr()
    assert main(["fit", "rabi", "--trace", "target.csv", "--far", "far.csv", *flag]) == 1
    assert not (tmp_path / "fit_rabi.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert flag[0] in json.loads(err[0])["message"]


@pytest.mark.parametrize("argv", [
    ["calc", "cooperativity", "--g-mhz", "118", "--kappa-mhz", "23", "--gamma2-mhz", "75",
     "--seed", "99"],
    ["calc", "dispersive", "--f-res-ghz", "7.162", "--f-peak-ghz", "7.155", "--g-mhz", "118",
     "--config", "config.json"],
    ["fit", "bare", "--trace", "far.csv", "--seed", "1"],
    ["compensate", "--far", "far.csv", "--target", "far.csv", "--config", "config.json"],
    ["calc", "purcell-bias", "--f-el-ghz", "5.0", "--cc-ff", "1"],
], ids=["cooperativity-seed", "dispersive-config", "fit-bare-seed", "compensate-config",
        "purcell-bias-cc-ff"])
def test_option_a_command_never_reads_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "UsageError"


class _ReadLog(argparse.Namespace):
    """A namespace that records the attributes read from it once ``_reads``
    is set; ``vars`` reads none of them one by one."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None and not name.startswith("__"):
            reads.add(name)
        return object.__getattribute__(self, name)


def _leaf_commands(parser, prefix=""):
    """The names of the commands that run, as "calc g" for a subcommand."""
    if parser._subparsers is None:
        return {prefix}
    (action,) = parser._subparsers._group_actions
    return set().union(*(_leaf_commands(sub, f"{prefix} {name}".strip())
                         for name, sub in action.choices.items()))


def _command_runs(tmp_path):
    """Write the input files into tmp_path, and return one argv per branch of
    each command, as (command, flags); inputs named with a 2 are the second
    values of the file flags."""
    main(_synth_args(str(tmp_path / "far.csv")))
    main(_synth_args(str(tmp_path / "target.csv"), kind="rabi"))
    main(_synth_args(str(tmp_path / "far2.csv")) + ["--crosstalk-t", "0.01"])
    main(_synth_args(str(tmp_path / "target2.csv"), kind="rabi") + ["--g-mhz", "100"])
    freqs = np.linspace(8.0, 9.3, 101).tolist()
    for name, center in (("dip.csv", 8.66), ("dip2.csv", 8.7)):
        (tmp_path / name).write_text("freq_GHz,response\n" + "".join(
            f"{f!r},{1.0 - 0.005 / ((f - center) ** 2 + 0.01)!r}\n" for f in freqs))
    _maps_file(tmp_path, "maps2.json", gate=True, x_width=0.6)
    sweep = ["--maps", _maps_file(tmp_path, gate=True), "--electrode", "trap",
             "--vmin", "0.25", "--vmax", "0.3", "--n", "2"]
    synth = ["--crosstalk-t", "0.008", "--snr", "50", "--points", "11"]
    runs = [
        ("synth", ["--f-el-ghz", "7.162", "--g-mhz", "118", *synth]),
        ("synth", synth),
        ("fit bare", ["--trace", "far.csv"]),
        ("fit rabi", ["--trace", "target.csv", "--far", "far.csv"]),
        ("fit rabi", ["--trace", "target.csv"]),
        ("fit twotone", ["--data", "dip.csv"]),
        ("compensate", ["--far", "far.csv", "--target", "target.csv"]),
        ("sweep shift", [*sweep, "--grad-per-um", "0.01", "--restarts", "1"]),
        ("sweep freq", [*sweep, "--nx", "21", "--ny", "21", "--k", "3"]),
        ("qsolve", ["--a1x", "1.1e-8", "--a1y", "1.1e-8", "--nx", "21", "--ny", "21",
                    "--k", "3"]),
        ("calc g", ["--coupling-length-nm", "2200"]),
        ("calc cardano", ["--a1", "0", "--a2", "2750", "--ey", "300"]),
        ("calc purcell-res", ["--g-mhz", "110", "--kappa-mhz", "23", "--delta-ghz", "1.1"]),
        ("calc purcell-bias", ["--f-el-ghz", "5.0"]),
        ("calc spin", ["--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1", "--ax-nm", "50",
                       "--delta-cs-ghz", "2"]),
        ("calc depression", ["--height-um", "3000", "--width-um", "1.4"]),
        ("calc cooperativity", ["--g-mhz", "118", "--kappa-mhz", "23", "--gamma2-mhz", "75"]),
        ("calc dispersive", ["--f-res-ghz", "7.162", "--f-peak-ghz", "7.155",
                             "--g-mhz", "118"]),
    ]
    assert {command for command, _flags in runs} == _leaf_commands(build_parser())
    return runs


# what parsing adds beside the flags: the handler, --out and the subcommand names
_NOT_FLAGS = {"func", "out", "command", "fit_kind", "sweep_kind", "calc_kind"}


def _declared(args: argparse.Namespace) -> set:
    return {name for name in vars(args) if not name.startswith("_")} - _NOT_FLAGS


def test_every_command_reads_every_flag_it_declares(tmp_path, monkeypatch):
    # a flag that a command accepts and then never reads is dropped without a
    # word; --config counts as read when the handler reads either record that
    # main loads from it; synth and fit rabi run on each of their branches,
    # since each branch must read every flag
    monkeypatch.chdir(tmp_path)
    unread = []
    for command, flags in _command_runs(tmp_path):
        args = build_parser().parse_args(command.split() + flags, namespace=_ReadLog())
        declared = _declared(args)
        args._constants, args._resonator_config = CONSTANTS, core.default_resonator()
        args._reads = set()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.func(args)
        records = {"_constants", "_resonator_config"}
        reads = args._reads | ({"config"} if records & args._reads else set())
        unread += [f"{command} --{name.replace('_', '-')}" for name in sorted(declared - reads)]
    assert not unread, "flags their command never reads: " + ", ".join(unread)


# A second valid value of each flag; a (command, flag) key overrides a flag's
# plain entry.  --config gets one file per config field the command reads.
_SECOND = {
    "seed": "1", "f_res_ghz": "7.2", "kappa1_mhz": "20", "kappa2_mhz": "20",
    "kappa_int_mhz": "5", "f_el_ghz": "7.15", "gamma2_mhz": "60", "g_mhz": "100",
    "crosstalk_t": "0.01", "crosstalk_zeta": "0.2", "span_mhz": "600", "center_ghz": "7.1",
    "points": "13", "snr": "40", "format": "svg",
    "trace": "target2.csv", "far": "far2.csv", "target": "target2.csv", "data": "dip2.csv",
    "maps": "maps2.json", "electrode": "gate", "vmin": "0.26", "vmax": "0.31", "n": "3",
    "voltage": "gate=0.02", "ex": "400", "ey": "400", "n_electrons": "2", "grad_per_um": "0.02",
    "nx": "23", "ny": "23", "k": "4", "a1x": "1.2e-8", "a1y": "1.2e-8", "a2x": "1e3",
    "a2y": "1e3", "coupling_length_nm": "2000", "a1": "1e-9", "a2": "3000",
    "kappa_mhz": "25", "delta_ghz": "1.2", "dalpha_dy_per_um": "0.04", "lf_nh": "13",
    "cf_pf": "0.9", "cother_ff": "450", "g_c_mhz": "130", "dbz_dx_t_per_um": "0.2",
    "ax_nm": "60", "delta_cs_ghz": "2.5", "height_um": "2000", "width_um": "1.5",
    "f_peak_ghz": "7.15",
    ("fit bare", "trace"): "far2.csv",
    ("fit rabi", "f_res_ghz"): "7.17",
}
_SECOND_FIELDS = {
    "e": 2 * CONSTANTS.e, "m_e": 3 * CONSTANTS.m_e, "h": 2 * CONSTANTS.h,
    "eps0": 2 * CONSTANTS.eps0, "mu_b": 2 * CONSTANTS.mu_b, "rho_he": 2 * CONSTANTS.rho_he,
    "sigma_he": 2 * CONSTANTS.sigma_he, "g_earth": 2 * CONSTANTS.g_earth,
    "l_r": 85.1e-9, "c_r": 5.9e-15, "kappa_1": 20e6 * TWO_PI, "kappa_2": 20e6 * TWO_PI,
    "kappa_int": 5e6 * TWO_PI,
}
# The flags of a run on which a config field matters, where the command's
# plain run leaves it out: e acts on one electron through a uniform field,
# eps0 only between two electrons.
_FIELD_RUN_FLAGS = {
    ("qsolve", "e"): ["--ey", "300"],
    ("sweep shift", "eps0"): ["--n-electrons", "2"],
}
# Flags whose second value may leave the output as it is, each with its reason.
_SAME_OUTPUT_ALLOWED = {
    ("sweep shift", "seed"): "it draws the start jitter; every start of the run descends "
                             "to the same minimum",
    ("sweep shift", "restarts"): "a second start descends to the same minimum as the first",
    ("qsolve", "seed"): "it seeds only the ARPACK fallback's start vector",
    ("sweep freq", "seed"): "it seeds only the ARPACK fallback's start vector",
}


def _stripped_outputs(out_dir: Path) -> dict:
    """Each output file's text without the config echo: the `# config:` line
    of a CSV, the "config" key of a JSON file."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if text.startswith("# config: "):
            text = text.partition("\n")[2]
        elif path.suffix == ".json" or path.name == "o":
            try:
                payload = json.loads(text)
            except ValueError:  # the SVG plot
                payload = None
            if isinstance(payload, dict):
                payload.pop("config", None)
                text = json.dumps(payload, sort_keys=True)
        files[path.name] = text
    return files


def test_every_flag_changes_the_output(tmp_path, monkeypatch, capsys):
    # reading a flag is not using it: each declared flag, and each config
    # field the command declares, set on its own to a second valid value must
    # change what its command writes, beyond the config echo, on at least one
    # branch; on another branch a usage error that refuses it is fine too
    monkeypatch.chdir(tmp_path)
    runs = _command_runs(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def outcome(argv):
        for path in out_dir.iterdir():
            path.unlink()
        code = main(argv + ["--out", str(out_dir / "o")])
        err = capsys.readouterr().err
        return code, err, _stripped_outputs(out_dir)

    changed, required, broken = set(), set(), []
    for command, flags in runs:
        argv = command.split() + flags
        code, err, base = outcome(argv)
        assert code == 0, (command, err)
        args = build_parser().parse_args(argv)
        perturbed = []
        for name in sorted(_declared(args)):
            if name == "config":
                for section, fields in args._fields.items():
                    for field in fields:
                        cfg = tmp_path / f"config_{field}.json"
                        cfg.write_text(json.dumps({section: {field: _SECOND_FIELDS[field]}}))
                        perturbed.append((f"config:{section}.{field}", ["--config", str(cfg)],
                                          _FIELD_RUN_FLAGS.get((command, field), [])))
            elif (command, name) not in _SAME_OUTPUT_ALLOWED:
                value = _SECOND.get((command, name), _SECOND.get(name))
                assert value is not None, f"no second value for {command} --{name}"
                perturbed.append((name, ["--" + name.replace("_", "-"), value], []))
        for name, extra, run in perturbed:
            required.add((command, name))
            plain = outcome(argv + run)[2] if run else base
            code, err, files = outcome(argv + run + extra)
            if code == 0 and files != plain:
                changed.add((command, name))
            elif code != 0 and json.loads(err)["error"] != "UsageError":
                broken.append(f"{command} {' '.join(extra)}: exit {code} {err.strip()}")
    assert not broken, "second values that fail: " + "; ".join(broken)
    same = sorted(required - changed)
    assert not same, "flags that leave the output as it is: " + ", ".join(
        f"{command} --{name.replace('_', '-')}" for command, name in same)


@pytest.mark.parametrize("command, flag", [
    ("calc g", "--kappa1-mhz"), ("calc g", "--kappa2-mhz"), ("calc g", "--kappa-int-mhz"),
    ("sweep shift", "--kappa1-mhz"), ("sweep shift", "--kappa2-mhz"),
    ("sweep shift", "--kappa-int-mhz"), ("fit bare", "--window"), ("compensate", "--window"),
])
def test_removed_flag_is_usage_error(tmp_path, monkeypatch, capsys, command, flag):
    # no decay rate reaches the coupling or the cluster spectrum, and the bare
    # fit's window is one fixed value
    monkeypatch.chdir(tmp_path)
    main(_synth_args("far.csv"))
    flags = {
        "calc g": ["--coupling-length-nm", "2200"],
        "sweep shift": ["--maps", _maps_file(tmp_path), "--electrode", "trap",
                        "--vmin", "0.25", "--vmax", "0.3", "--n", "1"],
        "fit bare": ["--trace", "far.csv"],
        "compensate": ["--far", "far.csv", "--target", "far.csv"],
    }[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(command.split() + flags + [flag, "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "UsageError"
    assert flag in json.loads(err[0])["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("kind", ["freq", "shift"])
@pytest.mark.parametrize("voltages, message", [
    (["trap=0.9"], "--voltage trap=0.9: trap is the swept --electrode"),
    (["gate=0.1", "gate=0.2"], "--voltage gate=0.2: gate is given twice"),
], ids=["swept-electrode", "twice"])
def test_sweep_refuses_a_voltage_it_would_drop(tmp_path, capsys, kind, voltages, message):
    # the swept electrode's voltage is set at every point, and a repeated
    # name keeps one value: either way a given value would go unused
    out = tmp_path / "sweep.csv"
    extra = {"freq": ["--nx", "5", "--ny", "5", "--k", "3"], "shift": ["--grad-per-um", "0.01"]}
    argv = ["sweep", kind, "--maps", _maps_file(tmp_path, gate=True), "--electrode", "trap",
            "--vmin", "0.25", "--vmax", "0.3", "--n", "2", *extra[kind], "--out", str(out)]
    for spec in voltages:
        argv += ["--voltage", spec]
    assert main(argv) == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "UsageError", "message": message}


@pytest.mark.parametrize("argv, cfg", [
    (["synth", "--points", "11"], {"constants": {"m_e": 1e-30}}),
    (["fit", "rabi", "--trace", "target.csv"], {"constants": {"m_e": 1e-30}}),
    (["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8"], {"resonator": {"l_r": 80e-9}}),
    (["sweep", "freq", "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.3"],
     {"resonator": {"l_r": 80e-9}}),
    (["calc", "cardano", "--a1", "0", "--a2", "2750", "--ey", "300"],
     {"resonator": {"l_r": 80e-9}}),
    (["calc", "g", "--coupling-length-nm", "2200"], {"resonater": {"l_r": 80e-9}}),
], ids=["synth-constants", "fit-rabi-constants", "qsolve-resonator", "sweep-freq-resonator",
        "calc-cardano-resonator", "unknown-key"])
def test_config_section_the_command_drops_is_format_error(tmp_path, monkeypatch, capsys,
                                                          argv, cfg):
    monkeypatch.chdir(tmp_path)
    main(_synth_args("target.csv", kind="rabi"))
    if argv[:2] == ["sweep", "freq"]:
        argv = argv + ["--maps", _maps_file(tmp_path)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv + ["--config", _config_file(tmp_path, cfg), "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "FormatError"
    assert repr(next(iter(cfg))) in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["config.json"])


@pytest.mark.parametrize("command", ["calc g", "sweep shift"])
def test_config_decay_rate_the_command_drops_is_format_error(tmp_path, monkeypatch, capsys,
                                                             command):
    # no decay rate reaches the coupling or the cluster spectrum, so a kappa
    # field of the resonator section would be dropped
    monkeypatch.chdir(tmp_path)
    flags = {
        "calc g": ["--coupling-length-nm", "2200"],
        "sweep shift": ["--maps", _maps_file(tmp_path), "--electrode", "trap",
                        "--vmin", "0.25", "--vmax", "0.3", "--n", "1"],
    }[command]
    cfg = _config_file(tmp_path, {"resonator": {"l_r": 80e-9, "kappa_1": 1e9,
                                                "kappa_int": 1e6}})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(command.split() + flags + ["--config", cfg, "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "FormatError"
    assert "['kappa_1', 'kappa_int']" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv, field", [
    (["qsolve", "--a1x", "1.1e-8", "--a1y", "1.1e-8"], "rho_he"),
    (["sweep", "freq", "--electrode", "trap", "--vmin", "0.25", "--vmax", "0.3"], "eps0"),
    (["calc", "depression", "--height-um", "3000", "--width-um", "1.4"], "mu_b"),
    (["calc", "g", "--coupling-length-nm", "2200"], "hbar"),
    (["calc", "spin", "--g-c-mhz", "120", "--dbz-dx-t-per-um", "0.1", "--ax-nm", "50",
      "--delta-cs-ghz", "2"], "hbar"),
], ids=["qsolve-rho_he", "sweep-freq-eps0", "calc-depression-mu_b", "calc-g-hbar",
        "calc-spin-hbar"])
def test_config_field_the_command_drops_is_format_error(tmp_path, monkeypatch, capsys,
                                                        argv, field):
    # a constant the result never reads would be dropped; hbar is no field
    # at all, since it follows h
    monkeypatch.chdir(tmp_path)
    if argv[:2] == ["sweep", "freq"]:
        argv = argv + ["--maps", _maps_file(tmp_path)]
    cfg = _config_file(tmp_path, {"constants": {field: 2 * getattr(CONSTANTS, field)}})
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv + ["--config", cfg, "--out", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["error"] == "FormatError"
    assert f"fields ['{field}'] are not read by this command" in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def _readme_command_lines():
    """Each `heliumdot ...` line of README's code blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in text.split("```")[1::2]:
        joined = block.replace("\\\n", " ")
        lines += [ln.strip() for ln in joined.splitlines() if ln.strip().startswith("heliumdot ")]
    return lines


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 8
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
