"""Classical orbit and spin precession for a dyon in homogeneous static fields.

Gaussian units with c and m explicit; the dimensionless presets set
hbar = c = m = 1.  The state carries u = gamma * beta = Pi / (m c), which
avoids the light-speed singularity, and the rest-frame spin vector s.

The default integrator is a fixed-step symmetric splitting: half electric
kick, exact magnetic-rotation of u (with the exact helical x advance) plus
the matching precession rotation of s, half kick.  A classical fixed-step
RK4 scheme is also available, but its per-step norm contraction of a pure
rotation is 1 - (w dt)^6/144, which over 2e5 steps at 200 steps per period
drifts |s| and the orbit energy by ~1e-6 — orders above the conservation
targets this module is checked against, which is why rotation splitting is
the default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hamiltonians import ParticleParams

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class FieldConfig:
    """Homogeneous static fields; duals follow B_dual = -E, E_dual = B."""

    E: Vec3 = (0.0, 0.0, 0.0)
    B: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "E", tuple(float(x) for x in self.E))
        object.__setattr__(self, "B", tuple(float(x) for x in self.B))

    @property
    def E_dual(self) -> Vec3:
        return self.B

    @property
    def B_dual(self) -> Vec3:
        return tuple(-x for x in self.E)


@dataclass(frozen=True)
class PhaseState:
    x: Vec3 = (0.0, 0.0, 0.0)
    u: Vec3 = (0.0, 0.0, 0.0)
    s: Vec3 = (0.0, 0.0, 1.0)
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "u", "s"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))

    @property
    def gamma(self) -> float:
        return math.sqrt(1.0 + _dot(self.u, self.u))

    @property
    def beta(self) -> Vec3:
        g = self.gamma
        return (self.u[0] / g, self.u[1] / g, self.u[2] / g)

    @property
    def helicity(self) -> float:
        umag = math.sqrt(_dot(self.u, self.u))
        if umag == 0.0:
            return 0.0
        return _dot(self.s, self.u) / umag


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _axpy(alpha, x, y) -> Vec3:
    return (y[0] + alpha * x[0], y[1] + alpha * x[1], y[2] + alpha * x[2])


def thomas_F(beta: Vec3, fields: FieldConfig, ge: float) -> Vec3:
    """Effective precession field for the electric-charge coupling."""
    b2 = _dot(beta, beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    r = gamma / (gamma + 1.0)
    a = ge / 2.0 - 1.0
    out = [0.0, 0.0, 0.0]
    bdotB = _dot(beta, fields.B)
    bxE = _cross(beta, fields.E)
    for i in range(3):
        out[i] = ((a + 1.0 / gamma) * fields.B[i]
                  - a * r * bdotB * beta[i]
                  - (ge / 2.0 - r) * bxE[i])
    return tuple(out)


def thomas_F_dual(beta: Vec3, fields: FieldConfig, gte: float) -> Vec3:
    """Dual effective field: same law on (B_dual, E_dual) = (-E, B)."""
    dual = FieldConfig(E=fields.E_dual, B=fields.B_dual)
    return thomas_F(beta, dual, gte)


def spin_rhs(state: PhaseState, fields: FieldConfig, params: ParticleParams,
             c: float = 1.0) -> Vec3:
    """ds/dt = (e/mc) s x F + (et/mc) s x F_dual."""
    beta = state.beta
    m = float(params.m)
    total = (0.0, 0.0, 0.0)
    if params.e:
        f = thomas_F(beta, fields, float(params.ge))
        total = _axpy(float(params.e) / (m * c), _cross(state.s, f), total)
    if params.etilde:
        fd = thomas_F_dual(beta, fields, float(params.gte))
        total = _axpy(float(params.etilde) / (m * c), _cross(state.s, fd), total)
    return total


def orbit_rhs(state: PhaseState, fields: FieldConfig, params: ParticleParams,
              c: float = 1.0) -> Vec3:
    """du/dt: Lorentz force plus its duality completion for the magnetic charge."""
    beta = state.beta
    m = float(params.m)
    e, et = float(params.e), float(params.etilde)
    bxB = _cross(beta, fields.B)
    bxE = _cross(beta, fields.E)
    return tuple((e * (fields.E[i] + bxB[i]) + et * (fields.B[i] - bxE[i])) / (m * c)
                 for i in range(3))


def orbit_hamiltonian(state: PhaseState, fields: FieldConfig,
                      params: ParticleParams, c: float = 1.0) -> float:
    """gamma m c^2 + e phi + et phi_dual with phi = -E.x, phi_dual = -B.x."""
    m = float(params.m)
    return (state.gamma * m * c * c
            - float(params.e) * _dot(fields.E, state.x)
            - float(params.etilde) * _dot(fields.B, state.x))


@dataclass
class Trajectory:
    """Sampled states plus derived observables; times strictly increase."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    s: np.ndarray
    helicity: np.ndarray
    energy: np.ndarray = field(default=None)

    def __len__(self):
        return len(self.t)

    def state(self, k: int) -> PhaseState:
        return PhaseState(x=tuple(self.x[k]), u=tuple(self.u[k]),
                          s=tuple(self.s[k]), t=float(self.t[k]))

    def spin_phase(self) -> np.ndarray:
        """Unwrapped azimuth of the transverse spin (precession phase)."""
        return np.unwrap(np.arctan2(self.s[:, 1], self.s[:, 0]))

    def momentum_phase(self) -> np.ndarray:
        return np.unwrap(np.arctan2(self.u[:, 1], self.u[:, 0]))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write("t,x,y,z,ux,uy,uz,sx,sy,sz,helicity\n")
            for k in range(len(self.t)):
                row = [self.t[k], *self.x[k], *self.u[k], *self.s[k], self.helicity[k]]
                f.write(",".join(repr(float(v)) for v in row) + "\n")


def _rotate(v: Vec3, axis: Vec3, angle: float) -> Vec3:
    """Rodrigues rotation; axis need not be normalized (zero axis = identity)."""
    wmag = math.sqrt(_dot(axis, axis))
    if wmag == 0.0 or angle == 0.0:
        return v
    n = (axis[0] / wmag, axis[1] / wmag, axis[2] / wmag)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    nxv = _cross(n, v)
    ndotv = _dot(n, v)
    return tuple(v[i] * cos_a + nxv[i] * sin_a + n[i] * ndotv * (1.0 - cos_a)
                 for i in range(3))


def _split_step(state: PhaseState, fields: FieldConfig, params: ParticleParams,
                dt: float, c: float) -> PhaseState:
    m = float(params.m)
    e, et = float(params.e), float(params.etilde)
    kick = tuple((e * fields.E[i] + et * fields.B[i]) / (m * c) for i in range(3))

    u = _axpy(0.5 * dt, kick, state.u)
    gamma = math.sqrt(1.0 + _dot(u, u))

    # Magnetic-type rotation of u about w_u = -(e B - et E)/(gamma m c); the
    # position advances along the exact helical arc of the rotating u.
    bc = tuple((e * fields.B[i] - et * fields.E[i]) / (gamma * m * c) for i in range(3))
    w = (-bc[0], -bc[1], -bc[2])
    wmag = math.sqrt(_dot(w, w))
    x = state.x
    if wmag == 0.0:
        x = _axpy(dt * c / gamma, u, x)
        u_new = u
    else:
        theta = wmag * dt
        n = (w[0] / wmag, w[1] / wmag, w[2] / wmag)
        upar = tuple(n[i] * _dot(n, u) for i in range(3))
        uperp = tuple(u[i] - upar[i] for i in range(3))
        nxu = _cross(n, uperp)
        arc = tuple(upar[i] * dt
                    + uperp[i] * math.sin(theta) / wmag
                    + nxu[i] * (1.0 - math.cos(theta)) / wmag
                    for i in range(3))
        x = _axpy(c / gamma, arc, x)
        u_new = _rotate(u, n, theta)

    # Spin precession about the effective field evaluated at the mid-kick u;
    # exact whenever that field is constant along the magnetic rotation.
    beta = tuple(ui / gamma for ui in u)
    ws = (0.0, 0.0, 0.0)
    if e:
        f = thomas_F(beta, fields, float(params.ge))
        ws = _axpy(-e / (m * c), f, ws)
    if et:
        fd = thomas_F_dual(beta, fields, float(params.gte))
        ws = _axpy(-et / (m * c), fd, ws)
    ws_mag = math.sqrt(_dot(ws, ws))
    s = _rotate(state.s, ws, ws_mag * dt) if ws_mag else state.s

    u_final = _axpy(0.5 * dt, kick, u_new)
    return PhaseState(x=x, u=u_final, s=s, t=state.t + dt)


def _rk4_step(state: PhaseState, fields: FieldConfig, params: ParticleParams,
              dt: float, c: float) -> PhaseState:
    def rhs(st: PhaseState):
        g = st.gamma
        dx = tuple(c * ui / g for ui in st.u)
        return dx, orbit_rhs(st, fields, params, c), spin_rhs(st, fields, params, c)

    def shift(st: PhaseState, k, h):
        return PhaseState(x=_axpy(h, k[0], st.x), u=_axpy(h, k[1], st.u),
                          s=_axpy(h, k[2], st.s), t=st.t + h)

    k1 = rhs(state)
    k2 = rhs(shift(state, k1, dt / 2))
    k3 = rhs(shift(state, k2, dt / 2))
    k4 = rhs(shift(state, k3, dt))
    blend = tuple(
        tuple((k1[j][i] + 2 * k2[j][i] + 2 * k3[j][i] + k4[j][i]) / 6 for i in range(3))
        for j in range(3))
    return shift(state, blend, dt)


_STEPPERS = {"split": _split_step, "rk4": _rk4_step}


def integrate(state0: PhaseState, fields: FieldConfig, params: ParticleParams,
              dt: float, steps: int, c: float = 1.0,
              scheme: str = "split") -> Trajectory:
    """Fixed-step integration; returns steps + 1 samples including the start."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    stepper = _STEPPERS[scheme]
    n = steps + 1
    t = np.empty(n)
    x = np.empty((n, 3))
    u = np.empty((n, 3))
    s = np.empty((n, 3))
    hel = np.empty(n)
    energy = np.empty(n)
    state = state0
    for k in range(n):
        t[k] = state.t
        x[k] = state.x
        u[k] = state.u
        s[k] = state.s
        hel[k] = state.helicity
        energy[k] = orbit_hamiltonian(state, fields, params, c)
        if k < steps:
            state = stepper(state, fields, params, dt, c)
    return Trajectory(t=t, x=x, u=u, s=s, helicity=hel, energy=energy)


# ---------------------------------------------------------------------------
# Dipole boosts

def _boost_prefactors(beta: Vec3) -> tuple[float, float]:
    b2 = _dot(beta, beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    return gamma, gamma * gamma / (gamma + 1.0)


def boost_dipole(mu_p: Vec3, mu_m: Vec3, beta: Vec3) -> tuple[Vec3, Vec3]:
    """Density transformation law (covariant; same as the field law under
    E <-> mu_p, B <-> -mu_m)."""
    gamma, g2r = _boost_prefactors(beta)
    bxm = _cross(beta, mu_m)
    bxp = _cross(beta, mu_p)
    bdotp = _dot(beta, mu_p)
    bdotm = _dot(beta, mu_m)
    lab_p = tuple(gamma * (mu_p[i] + bxm[i]) - g2r * beta[i] * bdotp for i in range(3))
    lab_m = tuple(gamma * (mu_m[i] - bxp[i]) - g2r * beta[i] * bdotm for i in range(3))
    return lab_p, lab_m


def boost_dipole_integrated(p: Vec3, m: Vec3, beta: Vec3) -> tuple[Vec3, Vec3]:
    """Integrated-moment law; the spatial volume factor makes it gamma^2-weighted
    and non-covariant, with the p/2 convention on the electric moment."""
    b2 = _dot(beta, beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    r = gamma / (gamma + 1.0)
    half_p = tuple(0.5 * pi for pi in p)
    bxm = _cross(beta, m)
    bxp = _cross(beta, half_p)
    lab_p = tuple(2.0 * gamma * gamma * (half_p[i] + bxm[i] - r * beta[i] * _dot(beta, half_p))
                  for i in range(3))
    lab_m = tuple(gamma * gamma * (m[i] - bxp[i] - r * beta[i] * _dot(beta, m))
                  for i in range(3))
    return lab_p, lab_m


def fw_effective_field(beta: Vec3, fields: FieldConfig, ge: float,
                       gte: float) -> tuple[Vec3, Vec3]:
    """Effective precession fields from the gamma-form coefficient braces of
    the reduced spin Hamiltonian, evaluated on the particle block.

    Returned in the same convention as (thomas_F, thomas_F_dual); the second
    brace couples to the negative intrinsic electric moment, which flips its
    overall sign relative to the dual effective field.
    """
    b2 = _dot(beta, beta)
    if b2 >= 1.0:
        raise ValueError("boost speed must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    r = gamma / (gamma + 1.0)
    bxE = _cross(beta, fields.E)
    bxB = _cross(beta, fields.B)
    bdotB = _dot(beta, fields.B)
    bdotE = _dot(beta, fields.E)
    brace_e = tuple((ge / 2 - 1 + 1 / gamma) * fields.B[i]
                    - (ge / 2 - r) * bxE[i]
                    - r * (ge / 2 - 1) * beta[i] * bdotB
                    for i in range(3))
    brace_et = tuple((gte / 2 - 1 + 1 / gamma) * fields.E[i]
                     + (gte / 2 - r) * bxB[i]
                     - r * (gte / 2 - 1) * beta[i] * bdotE
                     for i in range(3))
    return brace_e, tuple(-v for v in brace_et)


# ---------------------------------------------------------------------------
# Scenario files

def load_scenario(path: str | Path) -> tuple[ParticleParams, FieldConfig, PhaseState, dict]:
    """Read a simulation config: particle, fields, initial state, run block.

    Raises ValueError naming the offending field for a missing block or one
    that is not a JSON object, a non-positive or non-finite mass, a
    non-finite charge, gyro-ratio, field or initial value, a vector that is
    not three numbers, a missing or non-positive dt, a missing, negative or
    non-integer step count, or a scheme other than split/rk4.  The returned
    run block holds exactly dt, steps and scheme.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"scenario {path} is not a JSON object")
    data.setdefault("init", {})
    for block in ("particle", "fields", "init", "run"):
        if not isinstance(data.get(block), dict):
            raise ValueError(f"scenario {path} has no '{block}' block")
    part, init, run = data["particle"], data["init"], data["run"]
    params = ParticleParams(**{k: _as_fraction(f"particle.{k}", part.get(k, default))
                               for k, default in (("m", None), ("e", None), ("etilde", 0),
                                                  ("ge", 2), ("gte", 2))})
    if params.m <= 0:
        raise ValueError(f"scenario particle.m must be positive, got {part['m']!r}")
    fields = FieldConfig(**{k: _vector(f"fields.{k}", data["fields"].get(k, (0, 0, 0)))
                            for k in ("E", "B")})
    state = PhaseState(**{k: _vector(f"init.{k}", init.get(k, default))
                          for k, default in (("x", (0, 0, 0)), ("u", (0, 0, 0)),
                                             ("s", (0, 0, 1)))})
    dt = _as_fraction("run.dt", run.get("dt"))
    if dt <= 0:
        raise ValueError(f"scenario run.dt must be positive, got {run['dt']!r}")
    steps = run.get("steps")
    if type(steps) is not int or steps < 0:
        raise ValueError(f"scenario run.steps must be a non-negative integer, got {steps!r}")
    scheme = run.get("scheme", "split")
    if scheme not in _STEPPERS:
        raise ValueError(f"scenario run.scheme must be one of {sorted(_STEPPERS)}, "
                         f"got {scheme!r}")
    return params, fields, state, {"dt": float(dt), "steps": steps, "scheme": scheme}


def _as_fraction(name: str, value) -> Fraction:
    """Exact value of a finite scenario number (floats via their repr)."""
    try:
        return Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"scenario {name} must be a finite number, got {value!r}") from None


def _vector(name: str, value) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"scenario {name} must be three numbers, got {value!r}")
    return tuple(float(_as_fraction(name, v)) for v in value)
