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
import json
import math
import sys

import numpy as np

from . import analytic, cavity, cluster, core, fitters, io, potential, qsolver
from .core import (
    DomainError,
    FormatError,
    TWO_PI,
    constants_from_config,
    load_config,
    resonator_from_config,
)
from .fitters import FitError

_GHZ = 1e9 * TWO_PI
_MHZ = 1e6 * TWO_PI


class UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2;
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _resolved(args: argparse.Namespace) -> dict:
    opts = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and not k.startswith("_") and v is not None
    }
    return {"tool": "heliumdot", "options": io._json_safe(opts)}


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = io._json_dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resonator(args: argparse.Namespace) -> core.ResonatorParams:
    """The config's resonator section on top of the device defaults, then the
    --f-res-ghz and --kappa* flags on top of that."""
    res = resonator_from_config(args._config)
    kappas = {
        name: getattr(args, flag) * _MHZ
        for flag, name in (("kappa1_mhz", "kappa_1"), ("kappa2_mhz", "kappa_2"),
                           ("kappa_int_mhz", "kappa_int"))
        if getattr(args, flag, None) is not None
    }
    if getattr(args, "f_res_ghz", None) is not None:
        res = core.ResonatorParams.from_mode(
            args.f_res_ghz * _GHZ, res.impedance,
            kappa_1=res.kappa_1, kappa_2=res.kappa_2, kappa_int=res.kappa_int,
        )
    return dataclasses.replace(res, **kappas)


def _probe_axis(args: argparse.Namespace, center: float) -> np.ndarray:
    span = args.span_mhz * _MHZ
    if args.center_ghz is not None:
        center = args.center_ghz * _GHZ
    lo, hi = center - span / 2, center + span / 2
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("--center-ghz and --span-mhz must give a finite, non-empty band")
    return np.linspace(lo, hi, args.points)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    res = _resonator(args)
    el = None
    if args.f_el_ghz is not None:
        el = cavity.TwoLevelElectron(
            omega_e=args.f_el_ghz * _GHZ, gamma_2=args.gamma2_mhz * _MHZ
        )
    ct = cavity.CrosstalkParams(t=args.crosstalk_t, zeta=args.crosstalk_zeta,
                                theta=args.crosstalk_theta)
    probe = _probe_axis(args, res.omega_r)
    trace = cavity.synthesize_trace(
        res, el, args.g_mhz * _MHZ, ct, probe, snr=args.snr, seed=args.seed
    )
    if args.format == "svg":
        svg = io.svg_line_plot(
            probe / _GHZ,
            {"|S21|": np.abs(trace.s21)},
            xlabel="probe frequency (GHz)",
            ylabel="|S21|",
        )
        io.write_svg(args.out or "trace.svg", svg)
    else:
        io.write_trace(trace, args.out or "trace.csv", config=_resolved(args))
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit_bare(args: argparse.Namespace) -> int:
    trace = io.read_trace(args.trace)
    fit = fitters.fit_bare_resonator(trace, window_kappa_mult=args.window)
    io.write_fit_json(fit, args.out or "fit_bare.json", config=_resolved(args))
    return 0


def _cmd_fit_rabi(args: argparse.Namespace) -> int:
    trace = io.read_trace(args.trace)
    if args.far:
        far = io.read_trace(args.far)
        bare = fitters.fit_bare_resonator(far)
        res, _ct = fitters.resonator_from_bare_fit(bare)
    else:
        res = _resonator(args)
    fit = fitters.fit_rabi(trace, res)
    io.write_fit_json(fit, args.out or "fit_rabi.json", config=_resolved(args))
    return 0


def _cmd_fit_twotone(args: argparse.Namespace) -> int:
    drive, response = io.read_twotone_csv(args.data)
    fit = fitters.fit_lorentzian_dip(drive, response)
    io.write_fit_json(fit, args.out or "fit_twotone.json", config=_resolved(args))
    return 0


def _cmd_compensate(args: argparse.Namespace) -> int:
    far = io.read_trace(args.far)
    target = io.read_trace(args.target)
    result = cavity.compensate_background(far, target, window_kappa_mult=args.window)
    out = args.out or "compensated.csv"
    io.write_trace(result.compensated, out, config=_resolved(args))
    io.write_compensation_json(result.leak, result.other, out + ".comp.json",
                               config=_resolved(args))
    return 0


# ---------------------------------------------------------------------------
# sweeps and the eigensolver
# ---------------------------------------------------------------------------


def _base_voltages(args: argparse.Namespace) -> dict:
    voltages = {}
    for spec_ in args.voltage or []:
        name, _, value = spec_.partition("=")
        if not _:
            raise FormatError(f"--voltage expects NAME=VALUE, got {spec_!r}")
        voltages[name] = float(value)
    return voltages


def _sweep_voltages(args: argparse.Namespace) -> np.ndarray:
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    if not (math.isfinite(args.vmin) and math.isfinite(args.vmax)):
        raise DomainError("--vmin and --vmax must be finite")
    return np.linspace(args.vmin, args.vmax, args.n)


def _cmd_sweep_shift(args: argparse.Namespace) -> int:
    maps = potential.load_coupling_maps(args.maps)
    res = _resonator(args)
    grad = None
    if args.grad_per_um is not None:
        grad = potential.uniform_gradient_map(maps.domain, args.grad_per_um * 1e6)
    rows = cluster.shift_vs_voltage_sweep(
        maps,
        _base_voltages(args),
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
    return 0


def _cmd_sweep_freq(args: argparse.Namespace) -> int:
    maps = potential.load_coupling_maps(args.maps)
    base = _base_voltages(args)

    def factory(v: float) -> potential.PotentialField:
        voltages = dict(base)
        voltages[args.electrode] = v
        return potential.compose(maps, voltages, e_x=args.ex, e_y=args.ey,
                                 constants=args._constants)

    rows = qsolver.frequency_vs_voltage(
        factory,
        _sweep_voltages(args),
        nx=args.nx,
        ny=args.ny,
        k=args.k,
        seed=args.seed,
        constants=args._constants,
    )
    io.write_freq_sweep_csv(rows, args.out or "freq_sweep.csv", config=_resolved(args))
    return 0


def _cmd_qsolve(args: argparse.Namespace) -> int:
    constants = args._constants
    field_ = potential.QuarticField(
        a1x=args.a1x, a1y=args.a1y, a2x=args.a2x, a2y=args.a2y,
        e_x=args.ex, e_y=args.ey, constants=constants,
    )
    window = qsolver.auto_window(field_, constants=constants)
    ham = qsolver.build_hamiltonian(field_, window, nx=args.nx, ny=args.ny,
                                    constants=constants)
    sol = qsolver.eigenstates(ham, k=args.k, seed=args.seed)
    payload = {
        "energies_GHz": [e / constants.h / 1e9 for e in sol.energies],
        "residuals": [float(r) for r in sol.residuals],
        "window_um": [v * 1e6 for v in window],
        "config": _resolved(args),
    }
    if len(sol.energies) >= 3:
        tr = qsolver.transitions(sol)
        payload["f01_GHz"] = tr.omega_01.ghz
        payload["f12_GHz"] = tr.omega_12.ghz
        payload["alpha_MHz"] = tr.alpha_hz / 1e6
    _emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# calc group
# ---------------------------------------------------------------------------


def _cmd_calc_g(args: argparse.Namespace) -> int:
    res = _resonator(args)
    result = analytic.coupling_g(res, args.coupling_length_nm * 1e-9, constants=args._constants)
    _emit(
        {
            "g_MHz": result.g / _MHZ,
            "l_y_nm": result.l_y * 1e9,
            "v_zpf_uV": result.v_zpf * 1e6,
            "impedance_ohm": result.impedance,
            "f_res_GHz": result.omega_r / _GHZ,
            "config": _resolved(args),
        },
        args,
    )
    return 0


def _cmd_calc_cardano(args: argparse.Namespace) -> int:
    trap = analytic.CubicTrap1D(a1=args.a1, a2=args.a2, e_y=args.ey, constants=args._constants)
    result = analytic.cardano_minimum(trap)
    payload = {
        "y0_nm": result.y0 * 1e9,
        "regime": result.regime,
        "discriminant": result.discriminant,
        "roots_nm": [r * 1e9 for r in result.roots],
        "config": _resolved(args),
    }
    try:
        payload["f_trap_GHz"] = analytic.effective_frequency(trap) / _GHZ
    except DomainError:
        payload["f_trap_GHz"] = None
    _emit(payload, args)
    return 0


def _cmd_calc_purcell_res(args: argparse.Namespace) -> int:
    result = analytic.purcell_resonator(
        g=args.g_mhz * _MHZ, kappa=args.kappa_mhz * _MHZ, delta=args.delta_ghz * _GHZ
    )
    _emit(
        {
            "gamma1_per_s": result.gamma_1,
            "t1_us": result.t1 * 1e6,
            "config": _resolved(args),
        },
        args,
    )
    return 0


def _cmd_calc_purcell_bias(args: argparse.Namespace) -> int:
    omega_e = args.f_el_ghz * _GHZ
    c_c = args.cc_ff * 1e-15 if args.cc_ff is not None else analytic.bias_capacitance(
        args.dalpha_dy_per_um * 1e6, omega_e, constants=args._constants
    )
    circuit = analytic.BiasFilterCircuit(
        l_f=args.lf_nh * 1e-9,
        c_f=args.cf_pf * 1e-12,
        c_c=c_c,
        c_other=args.cother_ff * 1e-15,
    )
    result = analytic.purcell_bias(circuit, omega_e)
    _emit(
        {
            "c_c_fF": c_c * 1e15,
            "filter_resonance_GHz": circuit.filter_resonance / _GHZ,
            "gamma1_per_s": result.gamma_1,
            "t1_ms": result.t1 * 1e3,
            "config": _resolved(args),
        },
        args,
    )
    return 0


def _cmd_calc_spin(args: argparse.Namespace) -> int:
    result = analytic.spin_couplings(
        g_c=args.g_c_mhz * _MHZ,
        dbz_dx=args.dbz_dx_t_per_um * 1e6,
        a_x=args.ax_nm * 1e-9,
        delta_cs=args.delta_cs_ghz * _GHZ,
        constants=args._constants,
    )
    _emit(
        {
            "g_cs_MHz": result.g_cs / _MHZ,
            "g_s_MHz": result.g_s / _MHZ,
            "config": _resolved(args),
        },
        args,
    )
    return 0


def _cmd_calc_depression(args: argparse.Namespace) -> int:
    depth = analytic.helium_depression(args.height_um * 1e-6, args.width_um * 1e-6,
                                       constants=args._constants)
    _emit({"depression_nm": depth * 1e9, "config": _resolved(args)}, args)
    return 0


def _cmd_calc_cooperativity(args: argparse.Namespace) -> int:
    value = analytic.cooperativity(
        g=args.g_mhz * _MHZ, kappa=args.kappa_mhz * _MHZ, gamma_2=args.gamma2_mhz * _MHZ
    )
    _emit({"cooperativity": value, "config": _resolved(args)}, args)
    return 0


def _cmd_calc_dispersive(args: argparse.Namespace) -> int:
    omega_r = args.f_res_ghz * _GHZ
    delta = omega_r - args.f_peak_ghz * _GHZ
    freq = cavity.dispersive_electron_freq(delta, args.g_mhz * _MHZ, omega_r)
    _emit({"f_el_GHz": freq.ghz, "config": _resolved(args)}, args)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (constants, resonator)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default depends on command)")


def _add_resonator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f-res-ghz", type=float, help="resonator frequency (GHz)")
    p.add_argument("--kappa1-mhz", type=float)
    p.add_argument("--kappa2-mhz", type=float)
    p.add_argument("--kappa-int-mhz", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heliumdot")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a transmission trace")
    _add_common(p)
    _add_resonator_flags(p)
    p.add_argument("--f-el-ghz", type=float, help="electron frequency; omit for bare")
    p.add_argument("--gamma2-mhz", type=float, default=75.0)
    p.add_argument("--g-mhz", type=float, default=0.0)
    p.add_argument("--crosstalk-t", type=float, default=0.0)
    p.add_argument("--crosstalk-zeta", type=float, default=0.0)
    p.add_argument("--crosstalk-theta", type=float, default=0.0)
    p.add_argument("--span-mhz", type=float, default=800.0)
    p.add_argument("--center-ghz", type=float)
    p.add_argument("--points", type=int, default=801)
    p.add_argument("--snr", type=float, default=float("inf"))
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.set_defaults(func=_cmd_synth)

    fit = sub.add_parser("fit", help="fit a measured or synthesized trace")
    fit_sub = fit.add_subparsers(dest="fit_kind", required=True)

    p = fit_sub.add_parser("bare", help="bare resonator with crosstalk leak")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--window", type=float, default=2.0)
    p.set_defaults(func=_cmd_fit_bare)

    p = fit_sub.add_parser("rabi", help="hybridized doublet: g, gamma_2, f_el")
    _add_common(p)
    _add_resonator_flags(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--far", help="far-detuned trace to calibrate the resonator")
    p.set_defaults(func=_cmd_fit_rabi)

    p = fit_sub.add_parser("twotone", help="Lorentzian dip in a drive sweep")
    _add_common(p)
    p.add_argument("--data", required=True, help="CSV: freq_GHz,response")
    p.set_defaults(func=_cmd_fit_twotone)

    p = sub.add_parser("compensate", help="remove crosstalk and off-mode background")
    _add_common(p)
    p.add_argument("--far", required=True, help="far-detuned reference trace")
    p.add_argument("--target", required=True)
    p.add_argument("--window", type=float, default=2.0)
    p.set_defaults(func=_cmd_compensate)

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_kind", required=True)

    p = sweep_sub.add_parser("shift", help="resonator shift vs electrode voltage")
    _add_common(p)
    _add_resonator_flags(p)
    p.add_argument("--maps", required=True, help="coupling map JSON")
    p.add_argument("--electrode", required=True)
    p.add_argument("--vmin", type=float, required=True)
    p.add_argument("--vmax", type=float, required=True)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--voltage", action="append", metavar="NAME=VALUE")
    p.add_argument("--n-electrons", type=int, default=1)
    p.add_argument("--ex", type=float, default=0.0)
    p.add_argument("--ey", type=float, default=0.0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--grad-per-um", type=float,
                   help="override differential coupling gradient (1/um)")
    p.set_defaults(func=_cmd_sweep_shift)

    p = sweep_sub.add_parser("freq", help="transition frequencies vs voltage")
    _add_common(p)
    p.add_argument("--maps", required=True)
    p.add_argument("--electrode", required=True)
    p.add_argument("--vmin", type=float, required=True)
    p.add_argument("--vmax", type=float, required=True)
    p.add_argument("--n", type=int, default=11)
    p.add_argument("--voltage", action="append", metavar="NAME=VALUE")
    p.add_argument("--ex", type=float, default=0.0)
    p.add_argument("--ey", type=float, default=0.0)
    p.add_argument("--nx", type=int, default=151)
    p.add_argument("--ny", type=int, default=151)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=_cmd_sweep_freq)

    p = sub.add_parser("qsolve", help="2D eigenstates of an analytic trap")
    _add_common(p)
    p.add_argument("--a1x", type=float, required=True, help="J/m^2")
    p.add_argument("--a1y", type=float, required=True)
    p.add_argument("--a2x", type=float, default=0.0, help="J/m^4")
    p.add_argument("--a2y", type=float, default=0.0)
    p.add_argument("--ex", type=float, default=0.0, help="V/m")
    p.add_argument("--ey", type=float, default=0.0)
    p.add_argument("--nx", type=int, default=151)
    p.add_argument("--ny", type=int, default=151)
    p.add_argument("--k", type=int, default=6)
    p.set_defaults(func=_cmd_qsolve)

    calc = sub.add_parser("calc", help="closed-form estimates")
    calc_sub = calc.add_subparsers(dest="calc_kind", required=True)

    p = calc_sub.add_parser("g", help="charge coupling from the mode gradient")
    _add_common(p)
    _add_resonator_flags(p)
    p.add_argument("--coupling-length-nm", type=float, required=True)
    p.set_defaults(func=_cmd_calc_g)

    p = calc_sub.add_parser("cardano", help="quartic trap minimum, closed form")
    _add_common(p)
    p.add_argument("--a1", type=float, required=True, help="J/m^2")
    p.add_argument("--a2", type=float, required=True, help="J/m^4")
    p.add_argument("--ey", type=float, required=True, help="V/m")
    p.set_defaults(func=_cmd_calc_cardano)

    p = calc_sub.add_parser("purcell-res", help="decay through the resonator")
    _add_common(p)
    p.add_argument("--g-mhz", type=float, required=True)
    p.add_argument("--kappa-mhz", type=float, required=True)
    p.add_argument("--delta-ghz", type=float, required=True)
    p.set_defaults(func=_cmd_calc_purcell_res)

    p = calc_sub.add_parser("purcell-bias", help="decay through the bias line filter")
    _add_common(p)
    p.add_argument("--f-el-ghz", type=float, required=True)
    p.add_argument("--dalpha-dy-per-um", type=float, default=0.03,
                   help="coupling gradient for c_c (1/um)")
    p.add_argument("--cc-ff", type=float, help="bias coupling capacitance (fF)")
    p.add_argument("--lf-nh", type=float, default=12.0)
    p.add_argument("--cf-pf", type=float, default=0.8)
    p.add_argument("--cother-ff", type=float, default=500.0)
    p.set_defaults(func=_cmd_calc_purcell_bias)

    p = calc_sub.add_parser("spin", help="spin-charge and spin-photon coupling")
    _add_common(p)
    p.add_argument("--g-c-mhz", type=float, required=True)
    p.add_argument("--dbz-dx-t-per-um", type=float, required=True)
    p.add_argument("--ax-nm", type=float, required=True)
    p.add_argument("--delta-cs-ghz", type=float, required=True)
    p.set_defaults(func=_cmd_calc_spin)

    p = calc_sub.add_parser("depression", help="static surface dip in a channel")
    _add_common(p)
    p.add_argument("--height-um", type=float, required=True)
    p.add_argument("--width-um", type=float, required=True)
    p.set_defaults(func=_cmd_calc_depression)

    p = calc_sub.add_parser("cooperativity", help="4g^2/(kappa gamma_2)")
    _add_common(p)
    p.add_argument("--g-mhz", type=float, required=True)
    p.add_argument("--kappa-mhz", type=float, required=True)
    p.add_argument("--gamma2-mhz", type=float, required=True)
    p.set_defaults(func=_cmd_calc_cooperativity)

    p = calc_sub.add_parser("dispersive", help="electron frequency from a peak shift")
    _add_common(p)
    p.add_argument("--f-res-ghz", type=float, required=True)
    p.add_argument("--f-peak-ghz", type=float, required=True)
    p.add_argument("--g-mhz", type=float, required=True)
    p.set_defaults(func=_cmd_calc_dispersive)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every failure is one JSON line on stderr and exit 1.

    An ArithmeticError is such a failure too: a flag at the edge of the
    float range (a square that overflows, a product that underflows to
    zero) can fail in plain float math.
    """
    try:
        args = build_parser().parse_args(argv)
        # per-flag types would let "nan" through; inf stays legal (--snr inf)
        for name, value in sorted(vars(args).items()):
            if isinstance(value, float) and math.isnan(value):
                raise UsageError(f"--{name.replace('_', '-')}: NaN is not a value")
        args._config = load_config(args.config) if args.config else {}
        args._constants = constants_from_config(args._config)
        return args.func(args)
    except (UsageError, DomainError, FormatError, FitError, OSError, ArithmeticError) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)},
                       sort_keys=True) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
