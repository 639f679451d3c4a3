"""Test helper: integrate one frozen characteristic of the nozzle solver.

The march never traces a single characteristic (it plans every foot of a
step at once), so this tracer is an independent check on the frozen speeds:
wall hits, second-order round trips, and invariants held along a traced
curve.
"""

from dataclasses import dataclass

import numpy as np

from contactmoc.lagrangian import LagrangianDomain
from contactmoc.moc import FrozenField, SolverError


@dataclass
class CharacteristicPath:
    """Polyline of one traced frozen characteristic."""

    xi: np.ndarray
    eta: np.ndarray
    layer: str
    family: str
    foot: float
    event: str  # "end", "wall" or "contact"


def trace_characteristic(frozen: FrozenField, domain: LagrangianDomain, layer, family,
                         start, direction=1, max_steps=None) -> CharacteristicPath:
    """Integrate d eta / d xi = frozen lambda from a lattice abscissa.

    Midpoint rule with linear interpolation of the frozen field; stops at the
    requested number of xi-steps, the domain end, or the first wall/contact
    crossing (the crossing abscissa is located by linear interpolation inside
    the step and recorded as the final point).
    """
    eta_nodes, cols = next((eta, cols) for tag, eta, cols in domain.layers if tag == layer)
    lam = (frozen.lam_p if family == "+" else frozen.lam_m)[:, cols]
    lo, hi = eta_nodes[0], eta_nodes[-1]
    xi = domain.xi
    dxi = domain.dxi * direction

    k = int(round((start[0] - xi[0]) / domain.dxi))
    if abs(xi[k] - start[0]) > 1e-9 * domain.dxi + 1e-300:
        raise SolverError("internal error: characteristic start must sit on the xi lattice")
    eta = float(start[1])
    path_xi = [xi[k]]
    path_eta = [eta]
    event = "end"
    n = 0
    while 0 <= k + direction < xi.size:
        if max_steps is not None and n >= max_steps:
            break
        lam_here = np.interp(eta, eta_nodes, lam[k])
        eta_mid = np.clip(eta + 0.5 * dxi * lam_here, lo, hi)
        lam_mid = 0.5 * (
            np.interp(eta_mid, eta_nodes, lam[k])
            + np.interp(eta_mid, eta_nodes, lam[k + direction])
        )
        eta_new = eta + dxi * lam_mid
        if eta_new > hi or eta_new < lo:
            bound = hi if eta_new > hi else lo
            frac = (bound - eta) / (eta_new - eta)
            path_xi.append(path_xi[-1] + frac * dxi)
            path_eta.append(bound)
            if layer == "a":
                event = "wall" if bound == hi else "contact"
            else:
                event = "wall" if bound == lo else "contact"
            break
        k += direction
        n += 1
        eta = float(eta_new)
        path_xi.append(xi[k])
        path_eta.append(eta)
    xi_arr = np.asarray(path_xi)
    eta_arr = np.asarray(path_eta)
    if direction < 0:
        xi_arr = xi_arr[::-1]
        eta_arr = eta_arr[::-1]
    return CharacteristicPath(xi=xi_arr, eta=eta_arr, layer=layer, family=family,
                              foot=float(start[1]), event=event)
