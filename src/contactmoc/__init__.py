"""Supersonic contact-discontinuity nozzle flow by the method of characteristics.

Modules:
    gas         gamma-law thermodynamics and Riemann-invariant algebra
    expressions closed-form expressions with exact derivatives (walls, blow-up data)
    interp      monotone, four-point cubic and PCHIP interpolation
    config      run configuration, nozzle geometry and inlet profiles
    lagrangian  stream-function transform, its inverse and field output
    moc         fixed-point solver for the diagonalized boundary value problem
    oracle      independent first-order upwind cross-check
    blowup      semi-infinite flat-nozzle gradient blow-up demonstrator
    fixtures    canonical background-plus-perturbation config generators
    csvout      the CSV writer shared by every output file
    cli         command-line entry points
"""

__version__ = "0.1.0"
