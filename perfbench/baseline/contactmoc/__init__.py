"""Supersonic contact-discontinuity nozzle flow by the method of characteristics.

Subpackages:
    gas         gamma-law thermodynamics and Riemann-invariant algebra
    config      run configuration, nozzle geometry and inlet profiles
    lagrangian  stream-function transform, its inverse and field output
    moc         fixed-point solver for the diagonalized boundary value problem
    oracle      independent first-order upwind cross-check
    blowup      semi-infinite flat-nozzle gradient blow-up demonstrator
    cli         command-line entry points
"""

__version__ = "0.1.0"
