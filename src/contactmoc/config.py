"""Run configuration: nozzle geometry, inlet profiles, tolerances, sizes.

Config files are sectioned key=value text with
[gas], [background], [geometry], [inlet], [grid], [tolerances] tables
(plus optional [output] and [blowup]).  Inlet layers are CSV tables with
header ``y,u,v,p,rho``, either inline between ``<<<`` and ``>>>`` markers or
in sidecar files referenced by ``layer_a_csv`` / ``layer_b_csv``.  Wall
curves are closed-form expressions in x (polynomials, sin, cos, exp) or CSV
samples with header ``x,y``, inline or in sidecar files referenced by
``g_minus_csv`` / ``g_plus_csv``.  Scaling a wall's deviation keeps its
kind (an expression stays an expression, samples stay samples), so scaled
inputs round-trip too.  The full grammar is documented in the README and
round-tripped by write_config; ``_GRAMMAR`` lists every section and key a
file may hold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import gas
from .csvout import format_value
from .expressions import ExpressionError, SmoothExpression
from .interp import pchip


class ConfigError(ValueError):
    """Config invariant violation, with location context."""


class ConfigParseError(ConfigError):
    """Malformed config text: grammar, missing keys, unreadable values/files."""


# ---------------------------------------------------------------------------
# Wall curves


class WallCurve:
    """Nozzle wall y = g(x) on [0, L], evaluable with derivatives to third order."""

    def __init__(self, kind, payload):
        self._kind = kind
        if kind == "expr":
            self._expr = SmoothExpression(payload, var="x")
            self._text = payload
        elif kind == "samples":
            x, y = payload
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            if x.size < 4 or not np.all(np.diff(x) > 0):
                raise ConfigError("sampled wall needs >= 4 strictly increasing x samples")
            for name, col in (("x", x), ("y", y)):
                if not np.all(np.isfinite(col)):
                    raise ConfigError(f"sampled wall has a non-finite {name} sample")
            self._x = x
            self._y = y
            # The only scipy use at run time: keep it off the import path of
            # configs whose walls are expressions.
            from scipy.interpolate import CubicSpline

            self._spline = CubicSpline(x, y)
            self._derivs = [self._spline.derivative(k) for k in (1, 2, 3)]
        else:
            raise ConfigError(f"unknown wall kind {kind!r}")

    @classmethod
    def from_expression(cls, text):
        try:
            return cls("expr", text)
        except ExpressionError as exc:
            raise ConfigParseError(str(exc)) from None

    @classmethod
    def from_samples(cls, x, y):
        return cls("samples", (x, y))

    def __call__(self, x, order=0):
        x = np.asarray(x, dtype=float)
        if self._kind == "expr":
            return self._expr(x, order)
        return self._spline(x) if order == 0 else self._derivs[order - 1](x)

    def scale_deviation(self, t):
        """The wall b + t (g - b) about the constant line b = g(0) through its
        inlet end, of the same kind: an expression wall stays an expression,
        a sampled wall is the spline of its scaled samples."""
        b, t = float(self(0.0)), float(t)
        if self._kind == "expr":
            return WallCurve.from_expression(f"{b!r} + {t!r} * (({self._text}) - {b!r})")
        return WallCurve.from_samples(self._x, b + t * (self._y - b))

    def serialization(self):
        if self._kind == "expr":
            return ("expr", self._text)
        return ("samples", self._x, self._y)


@dataclass
class NozzleGeometry:
    """Wall curves g_minus < g_plus on [0, L] with derivatives to third order."""

    g_minus: WallCurve
    g_plus: WallCurve
    L: float

    def __post_init__(self):
        if not self.L > 0:
            raise ConfigError("nozzle length must be positive")
        xs = np.linspace(0.0, self.L, 1025)
        with np.errstate(all="ignore"):  # a non-finite value is this error, not a warning
            for name in ("g_minus", "g_plus"):
                for k in (0, 1, 2, 3):  # C3-evaluable
                    if not np.all(np.isfinite(getattr(self, name)(xs, k))):
                        what = "value" if k == 0 else f"derivative of order {k}"
                        raise ConfigError(f"wall {name} has a non-finite {what} on [0, L]")
        if not np.all(self.g_minus(xs) < self.g_plus(xs)):
            raise ConfigError("walls crossed: g_minus must stay below g_plus on [0, L]")

    def scale_deviation(self, t):
        """Both walls scaled about their inlet ends (``WallCurve.scale_deviation``)."""
        return NozzleGeometry(self.g_minus.scale_deviation(t), self.g_plus.scale_deviation(t),
                              self.L)


# ---------------------------------------------------------------------------
# Inlet profile


@dataclass
class InletLayer:
    """One layer's inlet table (y, u, v, p, rho) with monotone interpolation."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    rho: np.ndarray
    _interp: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        for name in ("u", "v", "p", "rho"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.y.size < 4 or not np.all(np.diff(self.y) > 0):
            raise ConfigError("inlet layer needs >= 4 strictly increasing y samples")
        for name in ("u", "v", "p", "rho"):
            if getattr(self, name).shape != self.y.shape:
                raise ConfigError(f"inlet column {name} length mismatch")
        for name in ("y", "u", "v", "p", "rho"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"inlet column {name} has a non-finite sample")

    def interp(self, name):
        if name not in self._interp:
            self._interp[name] = pchip(self.y, getattr(self, name))
        return self._interp[name]

    def eval(self, y):
        return tuple(self.interp(n)(y) for n in ("u", "v", "p", "rho"))

    def component(self, name, y, order=0):
        f = self.interp(name)
        return f(y) if order == 0 else f.derivative(order)(y)

    def mass_flux(self):
        """The rho*u interpolant and its antiderivative, built once."""
        if "mass_flux" not in self._interp:
            flux = pchip(self.y, self.rho * self.u)
            self._interp["mass_flux"] = (flux, flux.antiderivative())
        return self._interp["mass_flux"]


@dataclass
class InletProfile:
    """Incoming flow at x = 0: layer a on [0, g_plus(0)], layer b on [g_minus(0), 0]."""

    layer_a: InletLayer
    layer_b: InletLayer

    def validate(self, gamma, compat_tol):
        for tag, layer in (("a", self.layer_a), ("b", self.layer_b)):
            if not np.all(layer.p > 0) or not np.all(layer.rho > 0):
                raise ConfigError(f"not supersonic: layer {tag} has nonpositive p or rho")
            if not np.all(layer.u > gas.sound_speed(layer, gamma)):
                raise ConfigError(f"not supersonic: layer {tag} has a sample with u <= c")
            if not np.all(layer.rho * layer.u > 0):
                raise ConfigError(f"layer {tag} has nonpositive mass flux rho*u")
        if self.layer_a.y[0] != 0.0 or self.layer_b.y[-1] != 0.0:
            raise ConfigError("inlet layers must meet at y = 0")
        wa = self.layer_a.v[0] / self.layer_a.u[0]
        wb = self.layer_b.v[-1] / self.layer_b.u[-1]
        pa = self.layer_a.p[0]
        pb = self.layer_b.p[-1]
        if abs(wa - wb) > compat_tol:
            raise ConfigError("contact compatibility violated: flow angle mismatch at y=0")
        if abs(pa - pb) > compat_tol:
            raise ConfigError("contact compatibility violated: pressure mismatch at y=0")

    def scale_deviation(self, background, t):
        ua, rhoa = background.u_a, background.rho_a
        ub, rhob = background.u_b, background.rho_b
        pb = background.p

        def scaled(layer, ubar, rbar):
            return InletLayer(
                y=layer.y.copy(),
                u=ubar + t * (layer.u - ubar),
                v=t * layer.v,
                p=pb + t * (layer.p - pb),
                rho=rbar + t * (layer.rho - rbar),
            )

        return InletProfile(scaled(self.layer_a, ua, rhoa), scaled(self.layer_b, ub, rhob))


@dataclass(frozen=True)
class BackgroundState:
    """Constant two-layer reference flow: (u_i, 0, p, rho_i), i = a, b."""

    u_a: float
    rho_a: float
    u_b: float
    rho_b: float
    p: float

    def states(self):
        a = gas.PrimitiveState(u=self.u_a, v=0.0, p=self.p, rho=self.rho_a)
        b = gas.PrimitiveState(u=self.u_b, v=0.0, p=self.p, rho=self.rho_b)
        return a, b

    def validate(self, gamma, margin):
        for name in ("p", "rho_a", "rho_b"):
            x = getattr(self, name)
            if not 0.0 < x < np.inf:
                raise ConfigError(f"background {name} must be positive and finite, got {x:g}")
        for tag, st in zip(("a", "b"), self.states()):
            if not st.u - gas.sound_speed(st, gamma) > margin:
                raise ConfigError(f"not supersonic: background layer {tag} violates u - c > {margin}")


@dataclass
class RunConfig:
    """Solver settings; the background block doubles as the Theta reference."""

    gamma: float
    grid_nxi: int
    grid_neta_a: int
    grid_neta_b: int
    fp_tol: float = 1e-10
    max_fp_iters: int = 60
    newton_tol: float = 1e-12
    max_newton_iters: int = 50
    min_supersonic_margin: float = 1e-3
    compat_tol: float = 1e-8
    recon_top_tol: float = 1e-5
    out_dir: str = "out"
    background: BackgroundState = None

    def __post_init__(self):
        if not 1.0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be in (1, inf), got {self.gamma}")
        for name in ("fp_tol", "newton_tol", "min_supersonic_margin", "compat_tol", "recon_top_tol"):
            if not 0.0 < getattr(self, name) < np.inf:  # newton_tol = inf skips every Newton step
                raise ConfigError(f"tolerance {name} must be positive and finite")
        for name in ("grid_nxi", "grid_neta_a", "grid_neta_b"):
            if not getattr(self, name) >= 4:
                raise ConfigError(f"grid size {name} must be at least 4")
        if self.max_fp_iters < 1 or self.max_newton_iters < 1:
            raise ConfigError("iteration caps must be positive")


# Every section a config file may hold, with the keys it takes; any other
# section or key is a ConfigParseError.  The sections in _OPTIONAL_SECTIONS
# hold RunConfig settings: a key the file omits keeps its RunConfig default,
# whose type also parses the value.  [blowup] is read by the CLI the same way:
# a key it omits keeps its default in the blow-up signatures.
_GRAMMAR = {
    "gas": ("gamma",),
    "background": ("u_a", "rho_a", "u_b", "rho_b", "p"),
    "geometry": ("L", "g_minus", "g_plus", "g_minus_csv", "g_plus_csv"),
    "inlet": ("layer_a", "layer_b", "layer_a_csv", "layer_b_csv"),
    "grid": ("nxi", "neta_a", "neta_b"),
    "tolerances": ("fp_tol", "max_fp_iters", "newton_tol", "max_newton_iters",
                   "min_supersonic_margin", "compat_tol", "recon_top_tol"),
    "output": ("out_dir",),
    "blowup": ("u0", "v0", "rho_wall", "ny", "x_max", "dx_max", "grad_factor", "grad_floor"),
}
_OPTIONAL_SECTIONS = ("tolerances", "output")


# ---------------------------------------------------------------------------
# Parsing


class _Block(str):
    """The text of a ``<<<`` ... ``>>>`` block: always a table, however many
    lines it holds."""


def parse_sections(text, origin="<config>"):
    """Parse sectioned key=value text into {section: {key: (value, line)}}.

    A section or key outside ``_GRAMMAR``, or a key given twice, raises
    ConfigParseError at its line.
    """
    sections = {}
    current = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line_no = i + 1
        stripped = raw.strip()
        i += 1
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if current not in _GRAMMAR:
                raise ConfigParseError(f"{origin}:{line_no}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"{origin}:{line_no}: expected 'key = value', got {stripped!r}")
        if current is None:
            raise ConfigParseError(f"{origin}:{line_no}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _GRAMMAR[current]:
            raise ConfigParseError(f"{origin}:{line_no}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigParseError(f"{origin}:{line_no}: repeated key {key!r} in section "
                                   f"[{current}] (first on line {sections[current][key][1]})")
        if value == "<<<":
            block = []
            while i < len(lines) and lines[i].strip() != ">>>":
                block.append(lines[i])
                i += 1
            if i >= len(lines):
                raise ConfigParseError(f"{origin}:{line_no}: unterminated <<< block for {key!r}")
            i += 1
            sections[current][key] = (_Block("\n".join(block)), line_no)
        else:
            sections[current][key] = (value, line_no)
    return sections


def _get(sections, section, key, origin, cast=float):
    table = sections.get(section, {})
    if key not in table:
        raise ConfigParseError(f"{origin}: missing key {key!r} in section [{section}]")
    value, line = table[key]
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigParseError(f"{origin}:{line}: cannot parse {key} = {value!r}") from None


def _read_table(sections, section, name, columns, origin, base_dir):
    """The CSV table ``name`` of ``section`` as a (rows, columns) array.

    The table is inline (``name = <<<`` ... ``>>>``) or in the sidecar file
    named by ``name_csv``, relative to the config file, never both.  Its
    first line must be the header ``columns`` joined by commas, at least one
    data row must follow, and every row must hold that many numbers; anything
    else raises ConfigParseError.
    """
    table = sections.get(section, {})
    ref = name + "_csv"
    header = ",".join(columns)
    if name in table and ref in table:
        raise ConfigParseError(f"{origin}: section [{section}] gives both {name} (line "
                               f"{table[name][1]}) and {ref} (line {table[ref][1]}); give one")
    if name in table:
        text, where = table[name][0], name
    elif ref in table:
        where = os.path.join(base_dir, table[ref][0])
        try:
            with open(where) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigParseError(f"{origin}: sidecar CSV {where!r} not readable: {exc}") from None
    else:
        raise ConfigParseError(f"{origin}: section [{section}] needs {name} (inline) or {ref} (sidecar)")
    first, _, body = text.partition("\n")
    if first.strip().replace(" ", "") != header:
        raise ConfigParseError(f"{origin}: {where}: CSV header must be {header!r}")
    rows = [ln for ln in body.splitlines() if ln.partition("#")[0].strip()]
    if not rows:
        raise ConfigParseError(f"{origin}: {where}: table has no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigParseError(f"{origin}: {where}: bad CSV row: {exc}") from None
    if data.shape[1] != len(columns):
        raise ConfigParseError(f"{origin}: {where}: CSV needs {len(columns)} columns")
    return data


def _load_layer(sections, name, origin, base_dir):
    data = _read_table(sections, "inlet", name, ("y", "u", "v", "p", "rho"), origin, base_dir)
    return InletLayer(y=data[:, 0], u=data[:, 1], v=data[:, 2], p=data[:, 3], rho=data[:, 4])


def _load_wall(sections, name, origin, base_dir):
    """A wall from a one-line expression or an ``x,y`` table (inline or
    sidecar); an expression beside a sidecar is _read_table's error."""
    table = sections.get("geometry", {})
    value = table.get(name)
    if value is not None and not isinstance(value[0], _Block) and name + "_csv" not in table:
        return WallCurve.from_expression(value[0])
    data = _read_table(sections, "geometry", name, ("x", "y"), origin, base_dir)
    return WallCurve.from_samples(data[:, 0], data[:, 1])


def load_config(path):
    """Load and validate a solver config; returns (RunConfig, NozzleGeometry, InletProfile)."""
    origin = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"{origin}: {exc}") from None
    sections = parse_sections(text, origin)
    base_dir = os.path.dirname(os.path.abspath(path))

    gamma = _get(sections, "gas", "gamma", origin)
    bg = BackgroundState(
        u_a=_get(sections, "background", "u_a", origin),
        rho_a=_get(sections, "background", "rho_a", origin),
        u_b=_get(sections, "background", "u_b", origin),
        rho_b=_get(sections, "background", "rho_b", origin),
        p=_get(sections, "background", "p", origin),
    )
    optional = {key: _get(sections, section, key, origin, cast=type(getattr(RunConfig, key)))
                for section in _OPTIONAL_SECTIONS for key in _GRAMMAR[section]
                if key in sections.get(section, {})}
    cfg = RunConfig(
        gamma=gamma,
        grid_nxi=_get(sections, "grid", "nxi", origin, cast=int),
        grid_neta_a=_get(sections, "grid", "neta_a", origin, cast=int),
        grid_neta_b=_get(sections, "grid", "neta_b", origin, cast=int),
        background=bg,
        **optional,
    )
    bg.validate(gamma, cfg.min_supersonic_margin)

    L = _get(sections, "geometry", "L", origin)
    geom = NozzleGeometry(
        g_minus=_load_wall(sections, "g_minus", origin, base_dir),
        g_plus=_load_wall(sections, "g_plus", origin, base_dir),
        L=L,
    )
    profile = InletProfile(
        layer_a=_load_layer(sections, "layer_a", origin, base_dir),
        layer_b=_load_layer(sections, "layer_b", origin, base_dir),
    )
    profile.validate(gamma, cfg.compat_tol)
    check_inlet_ordinates(profile, geom, origin)
    return cfg, geom, profile


def check_inlet_ordinates(profile: InletProfile, geom: NozzleGeometry, origin=None):
    """Raise ConfigError unless layer_a ends at g_plus(0) and layer_b starts at
    g_minus(0), to 1e-9 of the inlet width; ``origin`` leads the message."""
    lead = f"{origin}: " if origin else ""
    top = geom.g_plus(0.0)
    bot = geom.g_minus(0.0)
    if abs(profile.layer_a.y[-1] - top) > 1e-9 * (top - bot):
        raise ConfigError(f"{lead}layer_a top {profile.layer_a.y[-1]} != g_plus(0) = {top}")
    if abs(profile.layer_b.y[0] - bot) > 1e-9 * (top - bot):
        raise ConfigError(f"{lead}layer_b bottom {profile.layer_b.y[0]} != g_minus(0) = {bot}")


def write_config(cfg: RunConfig, geom: NozzleGeometry, profile: InletProfile, path):
    """Serialize back to the text format (inverse of load_config)."""
    out = []
    out.append("[gas]")
    out.append(f"gamma = {format_value(cfg.gamma)}")
    out.append("")
    out.append("[background]")
    for key in ("u_a", "rho_a", "u_b", "rho_b", "p"):
        out.append(f"{key} = {format_value(getattr(cfg.background, key))}")
    out.append("")
    out.append("[geometry]")
    out.append(f"L = {format_value(geom.L)}")
    for name, wall in (("g_minus", geom.g_minus), ("g_plus", geom.g_plus)):
        kind, *payload = wall.serialization()
        if kind == "expr":
            out.append(f"{name} = {payload[0]}")
        else:
            x, y = payload
            out.append(f"{name} = <<<")
            out.append("x,y")
            for xi, yi in zip(x, y):
                out.append(f"{format_value(xi)},{format_value(yi)}")
            out.append(">>>")
    out.append("")
    out.append("[inlet]")
    for name, layer in (("layer_a", profile.layer_a), ("layer_b", profile.layer_b)):
        out.append(f"{name} = <<<")
        out.append("y,u,v,p,rho")
        for row in zip(layer.y, layer.u, layer.v, layer.p, layer.rho):
            out.append(",".join(format_value(v) for v in row))
        out.append(">>>")
    out.append("")
    out.append("[grid]")
    out.append(f"nxi = {cfg.grid_nxi}")
    out.append(f"neta_a = {cfg.grid_neta_a}")
    out.append(f"neta_b = {cfg.grid_neta_b}")
    out.append("")
    for section in _OPTIONAL_SECTIONS:
        out.append(f"[{section}]")
        for key in _GRAMMAR[section]:
            out.append(f"{key} = {format_value(getattr(cfg, key))}")
        out.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(out))


# ---------------------------------------------------------------------------
# Compatibility report and perturbation size


def validate_compatibility(profile: InletProfile, geom: NozzleGeometry, tol):
    """Check the inlet corner-slip conditions at both walls; returns violation
    strings.  The contact conditions are ``InletProfile.validate``'s."""
    report = []
    la, lb = profile.layer_a, profile.layer_b
    w_top = la.v[-1] / la.u[-1]
    slope_top = float(geom.g_plus(0.0, 1))
    if abs(w_top - slope_top) > tol:
        report.append(f"corner slip violated at upper wall: v/u = {w_top:.3e} vs g'_+ = {slope_top:.3e}")
    w_bot = lb.v[0] / lb.u[0]
    slope_bot = float(geom.g_minus(0.0, 1))
    if abs(w_bot - slope_bot) > tol:
        report.append(f"corner slip violated at lower wall: v/u = {w_bot:.3e} vs g'_- = {slope_bot:.3e}")
    return report


def perturbation_size(profile: InletProfile, geom: NozzleGeometry,
                      background: BackgroundState):
    """Discrete sup-norm size of the data perturbation.

    Sum of per-layer C2 norms of (U0 - background) and C3 norms of
    (g_plus - g_plus(0)) and (g_minus - g_minus(0)), each wall measured
    against the constant line through its inlet end; each norm is a sum over
    derivative orders of the sup over a dense evaluation lattice, and
    derivatives come from the stored interpolants.  Every norm is absolute,
    in the input's own units.
    """
    n_dense = 4096
    eps = 0.0
    for layer, ubar, rbar in (
        (profile.layer_a, background.u_a, background.rho_a),
        (profile.layer_b, background.u_b, background.rho_b),
    ):
        ys = np.linspace(layer.y[0], layer.y[-1], n_dense)
        ref = {"u": ubar, "v": 0.0, "p": background.p, "rho": rbar}
        for order in (0, 1, 2):
            worst = 0.0
            for name in ("u", "v", "p", "rho"):
                vals = layer.component(name, ys, order)
                if order == 0:
                    vals = vals - ref[name]
                worst = max(worst, float(np.max(np.abs(vals))))
            eps += worst
    xs = np.linspace(0.0, geom.L, n_dense)
    for wall in (geom.g_plus, geom.g_minus):
        for order in (0, 1, 2, 3):
            vals = wall(xs, order)
            if order == 0:
                vals = vals - float(wall(0.0))
            eps += float(np.max(np.abs(vals)))
    return eps
