"""Modeling toolkit for a single electron on superfluid helium coupled to a
high-impedance microwave resonator.

The package covers the full loop from electrostatics to readout: composed
trap potentials, classical electron clusters and their normal modes, a 2D
Schrodinger eigensolver, closed-form coupling and decay estimates,
transmission spectra with crosstalk, and the fitting machinery to pull
parameters back out of noisy traces.  Names are imported from their
modules (``from heliumdot.cavity import synthesize_trace``); the package
itself re-exports nothing.
"""
