"""Command line front end.

Subcommands cover the main workflows: synthesizing traces, fitting them,
background compensation, cluster and level sweeps, the 2D eigensolver, and
a ``calc`` group of closed-form estimates.  All frequencies on the command
line are cyclic (GHz/MHz as named); conversion to angular units happens
here and nowhere deeper.  Outputs are deterministic for a fixed seed, so
reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import analytic, cavity, cluster, core, fitters, io, potential, qsolver
from .core import DomainError, FitError, FormatError, GHZ, MHZ, read_json_object

# Largest size flags, refused before anything is allocated; far above the
# defaults of 801 probe points and 11 sweep points.
MAX_PROBE_POINTS = 1_000_000  # synth --points: a few 16 MB complex arrays
MAX_SWEEP_POINTS = 10_000  # sweep freq|shift --n: one solve or descent each

# The decay-rate flags of synth and fit rabi, and the fields they set.
_KAPPAS = {"kappa1_mhz": "kappa_1", "kappa2_mhz": "kappa_2", "kappa_int_mhz": "kappa_int"}
# Config fields read by more than one command: the whole resonator, and the
# constants of a single electron's levels (eps0 only sets the pair term).
_RESONATOR = ("l_r", "c_r", *_KAPPAS.values())
_LEVELS = ("e", "m_e", "h")


class UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2;
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _utf8(value):
    """value with each str in it as valid UTF-8, an undecodable argv byte as its escape."""
    if isinstance(value, list):
        return list(map(_utf8, value))
    if isinstance(value, str):
        return os.fsencode(value).decode("utf-8", "backslashreplace")
    return value


def _resolved(args: argparse.Namespace) -> dict:
    opts = {k: _utf8(v) for k, v in sorted(vars(args).items())
            if k not in ("func",) and not k.startswith("_") and v is not None}
    return {"tool": "heliumdot", "options": opts}


def _seed(text: str) -> int:
    """The --seed type: an integer in [0, 2**64), which the config echo writes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _resonator(args: argparse.Namespace) -> core.ResonatorParams:
    """The config's resonator record, then the --f-res-ghz and --kappa* flags
    on top of that."""
    res = args._resonator_config
    kappas = {name: getattr(args, flag) * MHZ for flag, name in _KAPPAS.items()
              if getattr(args, flag, None) is not None}
    if args.f_res_ghz is not None:
        res = core.ResonatorParams.from_mode(
            args.f_res_ghz * GHZ, res.impedance,
            kappa_1=res.kappa_1, kappa_2=res.kappa_2, kappa_int=res.kappa_int,
        )
    return dataclasses.replace(res, **kappas)


def _probe_axis(args: argparse.Namespace, center: float) -> np.ndarray:
    span = args.span_mhz * MHZ
    if args.center_ghz is not None:
        center = args.center_ghz * GHZ
    lo, hi = center - span / 2, center + span / 2
    if not 2 <= args.points <= MAX_PROBE_POINTS:
        raise DomainError(f"--points must be in [2, {MAX_PROBE_POINTS}], got {args.points}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("--center-ghz and --span-mhz must give a finite, non-empty band")
    return np.linspace(lo, hi, args.points)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> None:
    res = _resonator(args)
    el, g = None, 0.0
    if args.f_el_ghz is None:
        given = [name for name in ("g_mhz", "gamma2_mhz") if getattr(args, name) is not None]
        if given:
            raise UsageError("synth: without --f-el-ghz the trace is bare, so it does not take "
                             + ", ".join("--" + n.replace("_", "-") for n in given))
    else:
        if args.g_mhz is None or args.g_mhz == 0.0:
            raise UsageError("synth: --f-el-ghz needs a nonzero --g-mhz, since an uncoupled "
                             "electron changes no row of the trace")
        if args.gamma2_mhz is None:
            args.gamma2_mhz = 75.0  # so the config records what the trace used
        el = cavity.TwoLevelElectron(
            omega_e=args.f_el_ghz * GHZ, gamma_2=args.gamma2_mhz * MHZ
        )
        g = args.g_mhz * MHZ
    ct = cavity.CrosstalkParams(t=args.crosstalk_t, zeta=args.crosstalk_zeta)
    probe = _probe_axis(args, res.omega_r)
    trace = cavity.synthesize_trace(res, el, g, ct, probe, snr=args.snr, seed=args.seed)
    if args.format == "svg":
        svg = io.svg_line_plot(
            probe / GHZ, np.abs(trace.s21), "|S21|",
            xlabel="probe frequency (GHz)", ylabel="|S21|",
        )
        io.write_text(args.out or "trace.svg", svg)
    else:
        io.write_trace(trace, args.out or "trace.csv", config=_resolved(args))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit_bare(args: argparse.Namespace) -> None:
    trace = io.read_trace(args.trace)
    fit = fitters.fit_bare_resonator(trace)
    io.write_fit_json(fit, args.out or "fit_bare.json", config=_resolved(args))


def _far_params(far: str, target: str, metadata: dict) -> dict:
    """The bare-fit parameters of the far-detuned trace ``far``.

    A target compensated against this very text carries its bare fit in
    ``metadata`` (``reference_fit``, with the text's ``far_sha256``), which
    is taken as it stands; otherwise the far trace is parsed and fit.
    """
    text = io.read_text(far, f"trace {far}")
    if ("far_sha256" in metadata and "reference_fit" in metadata
            and metadata["far_sha256"] == io.text_sha256(text)):
        ref = metadata["reference_fit"]
        if not (isinstance(ref, dict) and set(ref) == set(fitters.BARE_PARAMS)
                and all(map(core.is_finite_number, ref.values()))):
            raise FormatError(f"trace sidecar {target}.json: reference_fit must be an "
                              f"object of the finite numbers {list(fitters.BARE_PARAMS)}")
        return ref
    return fitters.fit_bare_resonator(io.parse_trace(text, far)).params


def _cmd_fit_rabi(args: argparse.Namespace) -> None:
    trace = io.read_trace(args.trace)
    if args.far:
        ignored = [n for n in ("config", "f_res_ghz", *_KAPPAS) if getattr(args, n) is not None]
        if ignored:
            raise UsageError("fit rabi: --far calibrates the resonator, so it does not take "
                             + ", ".join("--" + n.replace("_", "-") for n in ignored))
        far = _far_params(args.far, args.trace, trace.metadata)
        res = fitters.resonator_from_bare_params(far)[0]
    else:
        res = _resonator(args)
    fit = fitters.fit_rabi(trace, res)
    if args.far and fitters.overcoupled(far):
        fit.flags["overcoupled_amplitude"] = True
    io.write_fit_json(fit, args.out or "fit_rabi.json", config=_resolved(args))


def _cmd_fit_twotone(args: argparse.Namespace) -> None:
    drive, response = io.read_twotone_csv(args.data)
    fit = fitters.fit_lorentzian_dip(drive, response)
    io.write_fit_json(fit, args.out or "fit_twotone.json", config=_resolved(args))


def _cmd_compensate(args: argparse.Namespace) -> None:
    far_text = io.read_text(args.far, f"trace {args.far}")
    far = io.parse_trace(far_text, args.far)
    target = io.read_trace(args.target)
    result = cavity.compensate_background(far, target)
    result.compensated.metadata["far_sha256"] = io.text_sha256(far_text)
    out = args.out or "compensated.csv"
    io.write_trace(result.compensated, out, config=_resolved(args))
    io.write_compensation_json(result.leak, result.other, out + ".comp.json",
                               config=_resolved(args))


# ---------------------------------------------------------------------------
# sweeps and the eigensolver
# ---------------------------------------------------------------------------


def _base_voltages(args: argparse.Namespace) -> dict:
    """The fixed electrode voltages; a NAME given twice, or naming the swept
    --electrode, would have its value dropped, so it is refused, and so is a
    value that is not finite, which would fail every point."""
    voltages = {}
    for spec_ in args.voltage or []:
        name, _, value = spec_.partition("=")
        try:  # without "=" the value is "", which is no number either
            volts = float(value)
        except ValueError:
            raise FormatError(f"--voltage expects NAME=VALUE, got {spec_!r}") from None
        if not math.isfinite(volts):
            raise DomainError(f"--voltage {spec_}: the value must be finite")
        if name == args.electrode:
            raise UsageError(f"--voltage {spec_}: {name} is the swept --electrode")
        if name in voltages:
            raise UsageError(f"--voltage {spec_}: {name} is given twice")
        voltages[name] = volts
    return voltages


def _sweep_voltages(args: argparse.Namespace) -> np.ndarray:
    if not 1 <= args.n <= MAX_SWEEP_POINTS:
        raise DomainError(f"--n must be in [1, {MAX_SWEEP_POINTS}], got {args.n}")
    if not all(map(math.isfinite, (args.vmin, args.vmax, args.ex, args.ey))):
        raise DomainError("--vmin, --vmax, --ex and --ey must be finite")
    if args.n == 1 and args.vmax != args.vmin:
        raise UsageError("--n 1 sweeps the one voltage --vmin, so --vmax must equal it")
    return np.linspace(args.vmin, args.vmax, args.n)


def _cmd_sweep_shift(args: argparse.Namespace) -> None:
    res = _resonator(args)
    base = _base_voltages(args)
    maps = potential.load_coupling_maps(args.maps)
    grad = None
    if args.grad_per_um is not None:
        grad = potential.uniform_gradient_map(maps.domain, args.grad_per_um * 1e6)
    rows = cluster.shift_vs_voltage_sweep(
        maps,
        base,
        args.electrode,
        _sweep_voltages(args),
        args.n_electrons,
        res,
        gradient_map=grad,
        e_x=args.ex,
        e_y=args.ey,
        seed=args.seed,
        restarts=args.restarts,
        constants=args._constants,
    )
    io.write_shift_sweep_csv(rows, args.out or "shift_sweep.csv", config=_resolved(args))


def _cmd_sweep_freq(args: argparse.Namespace) -> None:
    base = _base_voltages(args)
    maps = potential.load_coupling_maps(args.maps)
    maps.check_electrodes({args.electrode, *base})

    def factory(v: float) -> potential.PotentialField:
        voltages = dict(base)
        voltages[args.electrode] = v
        return potential.compose(maps, voltages, e_x=args.ex, e_y=args.ey,
                                 constants=args._constants)

    rows = qsolver.frequency_vs_voltage(factory, _sweep_voltages(args), nx=args.nx, ny=args.ny,
                                        k=args.k, seed=args.seed)
    io.write_freq_sweep_csv(rows, args.out or "freq_sweep.csv", config=_resolved(args))


def _cmd_qsolve(args: argparse.Namespace) -> dict:
    field_ = potential.QuarticField(
        a1x=args.a1x, a1y=args.a1y, a2x=args.a2x, a2y=args.a2y,
        e_x=args.ex, e_y=args.ey, constants=args._constants,
    )
    window = qsolver.auto_window(field_)
    ham = qsolver.build_hamiltonian(field_, window, nx=args.nx, ny=args.ny, kinetic="sinc")
    sol = qsolver.eigenstates(ham, k=args.k, seed=args.seed)
    payload = {
        "energies_GHz": [e / field_.constants.h / 1e9 for e in sol.energies],
        "residuals": [float(r) for r in sol.residuals],
        "window_um": [v * 1e6 for v in window],
        "flags": ham.flags,
    }
    if len(sol.energies) >= 3:
        tr = qsolver.transitions(sol)
        payload["f01_GHz"] = tr.omega_01 / GHZ
        payload["f12_GHz"] = tr.omega_12 / GHZ
        payload["alpha_MHz"] = tr.alpha / MHZ
    return payload


# ---------------------------------------------------------------------------
# calc group
# ---------------------------------------------------------------------------


def _cmd_calc_g(args: argparse.Namespace) -> dict:
    res = _resonator(args)
    result = analytic.coupling_g(res, args.coupling_length_nm * 1e-9, constants=args._constants)
    return {
        "g_MHz": result.g / MHZ,
        "l_y_nm": result.l_y * 1e9,
        "v_zpf_uV": result.v_zpf * 1e6,
        "impedance_ohm": result.impedance,
        "f_res_GHz": result.omega_r / GHZ,
    }


def _cmd_calc_cardano(args: argparse.Namespace) -> dict:
    trap = analytic.CubicTrap1D(a1=args.a1, a2=args.a2, e_y=args.ey, constants=args._constants)
    result = analytic.cardano_minimum(trap)
    payload = {
        "y0_nm": result.y0 * 1e9,
        "regime": result.regime,
        "discriminant": result.discriminant,
        "roots_nm": [r * 1e9 for r in result.roots],
    }
    try:
        payload["f_trap_GHz"] = analytic.effective_frequency(trap) / GHZ
    except DomainError:
        payload["f_trap_GHz"] = None
    return payload


def _cmd_calc_purcell_res(args: argparse.Namespace) -> dict:
    result = analytic.purcell_resonator(
        g=args.g_mhz * MHZ, kappa=args.kappa_mhz * MHZ, delta=args.delta_ghz * GHZ
    )
    return {"gamma1_per_s": result.gamma_1, "t1_us": result.t1 * 1e6}


def _cmd_calc_purcell_bias(args: argparse.Namespace) -> dict:
    omega_e = args.f_el_ghz * GHZ
    c_c = analytic.bias_capacitance(args.dalpha_dy_per_um * 1e6, omega_e,
                                    constants=args._constants)
    circuit = analytic.BiasFilterCircuit(
        l_f=args.lf_nh * 1e-9,
        c_f=args.cf_pf * 1e-12,
        c_c=c_c,
        c_other=args.cother_ff * 1e-15,
    )
    result = analytic.purcell_bias(circuit, omega_e)
    return {
        "c_c_fF": c_c * 1e15,
        "filter_resonance_GHz": circuit.filter_resonance / GHZ,
        "gamma1_per_s": result.gamma_1,
        "t1_ms": result.t1 * 1e3,
    }


def _cmd_calc_spin(args: argparse.Namespace) -> dict:
    result = analytic.spin_couplings(
        g_c=args.g_c_mhz * MHZ,
        dbz_dx=args.dbz_dx_t_per_um * 1e6,
        a_x=args.ax_nm * 1e-9,
        delta_cs=args.delta_cs_ghz * GHZ,
        constants=args._constants,
    )
    return {"g_cs_MHz": result.g_cs / MHZ, "g_s_MHz": result.g_s / MHZ}


def _cmd_calc_depression(args: argparse.Namespace) -> dict:
    depth = analytic.helium_depression(args.height_um * 1e-6, args.width_um * 1e-6,
                                       constants=args._constants)
    return {"depression_nm": depth * 1e9}


def _cmd_calc_cooperativity(args: argparse.Namespace) -> dict:
    value = analytic.cooperativity(
        g=args.g_mhz * MHZ, kappa=args.kappa_mhz * MHZ, gamma_2=args.gamma2_mhz * MHZ
    )
    return {"cooperativity": value}


def _cmd_calc_dispersive(args: argparse.Namespace) -> dict:
    omega_r = args.f_res_ghz * GHZ
    delta = omega_r - args.f_peak_ghz * GHZ
    omega_e = cavity.dispersive_electron_freq(delta, args.g_mhz * MHZ, omega_r)
    return {"f_el_GHz": omega_e / GHZ}


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _command(sub, name: str, func, help: str, config: dict | None = None,
             seed: bool = False) -> argparse.ArgumentParser:
    """One subcommand: --out everywhere, --config where the result of
    ``func`` reads config fields, given by section in ``config``, --seed
    where it draws random numbers."""
    p = sub.add_parser(name, help=help)
    if config:
        fields = "; ".join(f"{section} {', '.join(names)}" for section, names in config.items())
        p.add_argument("--config", help=f"JSON config file ({fields})")
        p.set_defaults(_fields=config)
    if seed:
        p.add_argument("--seed", type=_seed, default=0, help="integer in [0, 2**64)")
    p.add_argument("--out", help="output path (default depends on command)")
    p.set_defaults(func=func)
    return p


def _add_resonator_flags(p: argparse.ArgumentParser, kappas: bool = True) -> None:
    p.add_argument("--f-res-ghz", type=float, help="resonator frequency (GHz)")
    if kappas:  # only where the result reads a decay rate
        for flag in _KAPPAS:
            p.add_argument("--" + flag.replace("_", "-"), type=float)


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    """The maps, the swept electrode and its range, the other electrodes'
    voltages and the uniform fields, shared by both sweeps."""
    p.add_argument("--maps", required=True, help="coupling map JSON")
    p.add_argument("--electrode", required=True)
    p.add_argument("--vmin", type=float, required=True)
    p.add_argument("--vmax", type=float, required=True)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--voltage", action="append", metavar="NAME=VALUE")
    p.add_argument("--ex", type=float, default=0.0)
    p.add_argument("--ey", type=float, default=0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parsing fills a fresh
    namespace on every call and leaves the parser as it was."""
    parser = _Parser(prog="heliumdot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "synth", _cmd_synth, "synthesize a transmission trace",
                 config={"resonator": _RESONATOR}, seed=True)
    _add_resonator_flags(p)
    p.add_argument("--f-el-ghz", type=float, help="electron frequency; omit for bare")
    p.add_argument("--gamma2-mhz", type=float, help="needs --f-el-ghz (default 75)")
    p.add_argument("--g-mhz", type=float, help="required, nonzero, with --f-el-ghz")
    p.add_argument("--crosstalk-t", type=float, default=0.0)
    p.add_argument("--crosstalk-zeta", type=float, default=0.0)
    p.add_argument("--span-mhz", type=float, default=800.0)
    p.add_argument("--center-ghz", type=float)
    p.add_argument("--points", type=int, default=801)
    p.add_argument("--snr", type=float, default=float("inf"))
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    fit = sub.add_parser("fit", help="fit a measured or synthesized trace")
    fit_sub = fit.add_subparsers(dest="fit_kind", required=True)

    p = _command(fit_sub, "bare", _cmd_fit_bare, "bare resonator with crosstalk leak")
    p.add_argument("--trace", required=True)

    p = _command(fit_sub, "rabi", _cmd_fit_rabi, "hybridized doublet: g, gamma_2, f_el",
                 config={"resonator": _RESONATOR})
    _add_resonator_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--far", help="far-detuned trace to calibrate the resonator "
                                 "(then no --config, --f-res-ghz or --kappa*); a trace "
                                 "compensated against it reuses the stored fit")

    p = _command(fit_sub, "twotone", _cmd_fit_twotone, "Lorentzian dip in a drive sweep")
    p.add_argument("--data", required=True, help="CSV: freq_GHz,response")

    p = _command(sub, "compensate", _cmd_compensate, "remove crosstalk and off-mode background")
    p.add_argument("--far", required=True, help="far-detuned reference trace")
    p.add_argument("--target", required=True)

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_kind", required=True)

    p = _command(sweep_sub, "shift", _cmd_sweep_shift, "resonator shift vs electrode voltage",
                 config={"constants": ("e", "m_e", "eps0"), "resonator": ("l_r", "c_r")},
                 seed=True)
    _add_resonator_flags(p, kappas=False)
    _add_sweep_flags(p)
    p.add_argument("--n-electrons", type=int, default=1)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--grad-per-um", type=float,
                   help="override differential coupling gradient (1/um)")

    p = _command(sweep_sub, "freq", _cmd_sweep_freq, "transition frequencies vs voltage",
                 config={"constants": _LEVELS}, seed=True)
    _add_sweep_flags(p)
    p.add_argument("--nx", type=int, default=qsolver.LEVEL_GRID)
    p.add_argument("--ny", type=int, default=qsolver.LEVEL_GRID)
    p.add_argument("--k", type=int, default=4)

    p = _command(sub, "qsolve", _cmd_qsolve, "2D eigenstates of an analytic trap",
                 config={"constants": _LEVELS}, seed=True)
    p.add_argument("--a1x", type=float, required=True, help="J/m^2")
    p.add_argument("--a1y", type=float, required=True)
    p.add_argument("--a2x", type=float, default=0.0, help="J/m^4")
    p.add_argument("--a2y", type=float, default=0.0)
    p.add_argument("--ex", type=float, default=0.0, help="V/m")
    p.add_argument("--ey", type=float, default=0.0)
    p.add_argument("--nx", type=int, default=qsolver.LEVEL_GRID)
    p.add_argument("--ny", type=int, default=qsolver.LEVEL_GRID)
    p.add_argument("--k", type=int, default=6)

    calc = sub.add_parser("calc", help="closed-form estimates")
    calc_sub = calc.add_subparsers(dest="calc_kind", required=True)

    p = _command(calc_sub, "g", _cmd_calc_g, "charge coupling from the mode gradient",
                 config={"constants": _LEVELS, "resonator": ("l_r", "c_r")})
    _add_resonator_flags(p, kappas=False)
    p.add_argument("--coupling-length-nm", type=float, required=True)

    p = _command(calc_sub, "cardano", _cmd_calc_cardano, "quartic trap minimum, closed form",
                 config={"constants": ("e", "m_e")})
    p.add_argument("--a1", type=float, required=True, help="J/m^2")
    p.add_argument("--a2", type=float, required=True, help="J/m^4")
    p.add_argument("--ey", type=float, required=True, help="V/m")

    p = _command(calc_sub, "purcell-res", _cmd_calc_purcell_res, "decay through the resonator")
    p.add_argument("--g-mhz", type=float, required=True)
    p.add_argument("--kappa-mhz", type=float, required=True)
    p.add_argument("--delta-ghz", type=float, required=True)

    p = _command(calc_sub, "purcell-bias", _cmd_calc_purcell_bias,
                 "decay through the bias line filter", config={"constants": ("e", "m_e")})
    p.add_argument("--f-el-ghz", type=float, required=True)
    p.add_argument("--dalpha-dy-per-um", type=float, default=0.03,
                   help="coupling gradient for c_c (1/um)")
    p.add_argument("--lf-nh", type=float, default=12.0)
    p.add_argument("--cf-pf", type=float, default=0.8)
    p.add_argument("--cother-ff", type=float, default=500.0)

    p = _command(calc_sub, "spin", _cmd_calc_spin, "spin-charge and spin-photon coupling",
                 config={"constants": ("mu_b", "h")})
    p.add_argument("--g-c-mhz", type=float, required=True)
    p.add_argument("--dbz-dx-t-per-um", type=float, required=True)
    p.add_argument("--ax-nm", type=float, required=True)
    p.add_argument("--delta-cs-ghz", type=float, required=True)

    p = _command(calc_sub, "depression", _cmd_calc_depression, "static surface dip in a channel",
                 config={"constants": ("rho_he", "sigma_he", "g_earth")})
    p.add_argument("--height-um", type=float, required=True)
    p.add_argument("--width-um", type=float, required=True)

    p = _command(calc_sub, "cooperativity", _cmd_calc_cooperativity, "4g^2/(kappa gamma_2)")
    p.add_argument("--g-mhz", type=float, required=True)
    p.add_argument("--kappa-mhz", type=float, required=True)
    p.add_argument("--gamma2-mhz", type=float, required=True)

    p = _command(calc_sub, "dispersive", _cmd_calc_dispersive,
                 "electron frequency from a peak shift")
    p.add_argument("--f-res-ghz", type=float, required=True)
    p.add_argument("--f-peak-ghz", type=float, required=True)
    p.add_argument("--g-mhz", type=float, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every failure is one JSON line on stderr and exit 1.

    An ArithmeticError is such a failure too: a flag at the edge of the
    float range (a square that overflows, a product that underflows to
    zero) can fail in plain float math.  Numpy's float errors (overflow,
    division by zero, an invalid operation such as inf - inf) raise
    FloatingPointError, one of them, instead of printing a warning.  A size
    flag too large to allocate is a MemoryError.

    A command writes its own output files and returns None, or returns a
    JSON payload, which gains the resolved ``config`` and goes to ``--out``
    or stdout as ``io.json_text`` writes it; only the error line is json's.
    """
    try:
        args = build_parser().parse_args(argv)
        # per-flag types would let "nan" through; inf stays legal (--snr inf)
        for name, value in sorted(vars(args).items()):
            if isinstance(value, float) and math.isnan(value):
                raise UsageError(f"--{name.replace('_', '-')}: NaN is not a value")
        config = getattr(args, "config", None)
        reads = getattr(args, "_fields", {})
        records = {"constants": core.CONSTANTS, "resonator": core.default_resonator()}
        cfg = read_json_object(config, "config") if config else {}
        for section, body in sorted(cfg.items()):
            read = reads.get(section, ())
            dropped = sorted(set(body) - set(read)) if isinstance(body, dict) else []
            if dropped or not read:
                raise FormatError(f"config {config}: {section!r} fields {dropped} are not read "
                                  f"by this command, which reads {reads}")
            if not isinstance(body, dict):
                raise FormatError(f"config section {section!r} must be an object")
            for key, value in body.items():
                if not core.is_finite_number(value):
                    raise FormatError(f"config {section}.{key} must be a finite number, "
                                      f"got {value!r}")
            records[section] = dataclasses.replace(records[section], **body)
        args._constants, args._resonator_config = records["constants"], records["resonator"]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            payload = args.func(args)
        if payload is not None:
            payload["config"] = _resolved(args)
            text = io.json_text(payload)
            if args.out:
                io.write_text(args.out, text)
            else:
                sys.stdout.write(text)
        return 0
    except (UsageError, DomainError, FormatError, FitError, OSError, ArithmeticError,
            MemoryError) as exc:
        # numpy's MemoryError is a private subclass; report the builtin name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        # json, not orjson: its ASCII escapes keep an undecodable argv byte in a message
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
