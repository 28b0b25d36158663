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

`PhaseState` and `FieldConfig` are the validated boundary types, each vector
three floats: `_integrate_blocks` reads its start state once, binds every
per-run constant (float charges and masses, the kick, the rotation
numerator, the dual fields, g/2 - 1 per coupling) into a step function, and
the loop then steps rows (x, u, s) of nine floats, the layout of a stored
sample.  Each step is one flat function that calls no per-step helper.  The
split step writes out both Rodrigues rotations, rotates u with the sin and
cos its helical x advance already took, and computes gamma and
r = gamma/(gamma + 1) of the Thomas-BMT field once for both couplings; the
rk4 step's `rates` writes out the Lorentz force and the Thomas-BMT fields on
scalars, reusing beta x B and beta x E.  Each float expression keeps the
operands and the order of `_thomas` and of the per-state reference in
`tests/oracles.py`, which types the law again, one state at a time; the
tests compare the steppers and the derived columns with it bit for bit.

The loop yields a fresh `Trajectory` for every block of whole chunks, its
last row and time carried over to the next.  `integrate` copies the blocks
into whole-run arrays allocated before the first step.  `simulate` holds
one block, not the run: it hands each block, the last one included, to a
forked CSV helper (`_CsvWriter`) while the next block is stepped, folds the
block into the drift maxima and drops it.  Since no whole-run array bounds
its step count, `simulate` first refuses a run whose CSV, at least 44 bytes
a row, cannot fit in the free space of the output's directory or of the
temporary directory.  `Trajectory.write_csv` formats the same rows in this
process, the reference the streamed file is compared with.  numpy is
imported only by the code that builds or reads arrays.

`boost_dipole` reads the dipoles of a moving particle off the same
Thomas-BMT field the integrator precesses with, on float tuples without
numpy; the tests check it against the dipoles of the derived spin
Hamiltonian.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import stat
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .hamiltonians import ParticleParams

Vec3 = tuple[float, float, float]


class FieldConfig(namedtuple("FieldConfig", "E B", defaults=((0.0, 0.0, 0.0),) * 2)):
    """Homogeneous static fields E and B, each a Vec3."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, map(_vec3, cls._fields, super().__new__(cls, *args, **kwargs)))


class PhaseState(namedtuple("PhaseState", "x u s t",
                            defaults=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0))):
    """Position x, u = gamma * beta and rest-frame spin s, each a Vec3, at time t."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        x, u, s, t = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, (_vec3("x", x), _vec3("u", u), _vec3("s", s), t))


def _vec3(name: str, value) -> Vec3:
    """value as three floats; ValueError naming name for any other length.
    Entry points only: the steppers read vectors already checked."""
    vec = tuple(map(float, value))
    if len(vec) != 3:
        raise ValueError(f"{name} must be three numbers, got {len(vec)}")
    return vec


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _thomas(beta, E: Vec3, B: Vec3, half_g: float) -> Vec3:
    """The Thomas-BMT field of one coupling, half_g = g/2: (g/2 - 1 + 1/gamma) B
    - (g/2 - 1) r (beta.B) beta - (g/2 - r) beta x E with r = gamma/(gamma + 1)."""
    b2 = _dot(beta, beta)
    if not b2 < 1.0:  # also rejects NaN
        raise ValueError("boost speed must be below 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    r = gamma / (gamma + 1.0)
    a = half_g - 1.0
    along_B = a + 1.0 / gamma
    along_beta = a * r * _dot(beta, B)
    along_bxE = half_g - r
    bxE = _cross(beta, E)
    return (along_B * B[0] - along_beta * beta[0] - along_bxE * bxE[0],
            along_B * B[1] - along_beta * beta[1] - along_bxE * bxE[1],
            along_B * B[2] - along_beta * beta[2] - along_bxE * bxE[2])


def _couplings(fields: FieldConfig, params: ParticleParams, c: float) -> list:
    """(q / mc, E, B, g / 2) for each non-zero charge: the electric charge in
    the fields, the magnetic one in the dual fields (E, B) -> (B, -E)."""
    mc = float(params.m) * c
    out = []
    if params.e:
        out.append((float(params.e) / mc, fields.E, fields.B, float(params.ge) / 2.0))
    if params.etilde:
        out.append((float(params.etilde) / mc, fields.B, tuple(-x for x in fields.E),
                    float(params.gte) / 2.0))
    return out


def _hamiltonian(gamma, x, fields: FieldConfig, params: ParticleParams, c: float):
    """The orbit energy gamma m c^2 + e phi + et phi_dual, with phi = -E.x and
    phi_dual = -B.x, on a float gamma and position, or elementwise on arrays
    of them (x indexed by component)."""
    m = float(params.m)
    return (gamma * m * c * c
            - float(params.e) * _dot(fields.E, x)
            - float(params.etilde) * _dot(fields.B, x))


_CHUNK_ROWS = 1024  # rows per chunk when columns are formatted or combined
_BLOCK_CHUNKS = 8  # chunks per block, the rows stepped between two hand-offs to the CSV writer
_MAX_BLOCKS = 4  # the most CSV helpers alive at once
_CSV_HEADER = "t,x,y,z,ux,uy,uz,sx,sy,sz,helicity\n"
_CSV_ROW = ",".join(["%r"] * 11) + "\n"  # the header's eleven columns; %r is repr
# No float's repr is shorter than 0.0's, so no CSV row is shorter than this.
_MIN_CSV_ROW_BYTES = len(_CSV_ROW % ((0.0,) * 11))


class Trajectory:
    """Sampled states plus derived observables; times strictly increase."""

    def __init__(self, t: np.ndarray, x: np.ndarray, u: np.ndarray, s: np.ndarray,
                 helicity: np.ndarray, energy: np.ndarray):
        self.t, self.x, self.u, self.s = t, x, u, s
        self.helicity, self.energy = helicity, energy

    def __len__(self):
        return len(self.t)

    def drifts(self) -> dict[str, float]:
        """Largest deviation of the helicity, spin norm and energy from their
        first sample; a NaN sample gives a NaN drift."""
        return _drifts([self])

    def write_csv(self, path: str | Path) -> None:
        """One line per sample, each value as repr(float), formatted in this
        process one chunk at a time."""
        with open(path, "w") as f:
            f.write(_CSV_HEADER)
            _write_chunks(f, _columns(self), range(0, len(self), _CHUNK_ROWS))


class _CsvWriter:
    """Writes a trajectory's CSV, formatting its rows on forked helpers.

    hand gives a finished block to a new helper, which writes its rows to an
    anonymous temporary file while the caller steps on.  At most one helper
    per usable CPU, and at most _MAX_BLOCKS, is alive at once; at that cap
    the oldest is waited for first.  write writes the header, then appends
    the helpers' files in row order, each once its helper has exited with
    status 0.  Nothing reaches the file before write, and leaving the with
    block reaps every helper.
    """

    def __init__(self):
        self._cap = min(_usable_cpus(), _MAX_BLOCKS)
        self._helpers = []  # (first row, pid, file), in row order
        self._reaped = 0  # helpers [0, _reaped) have exited
        self._handed = 0  # rows [0, _handed) are handed to helpers

    def __enter__(self) -> "_CsvWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        for _, _, tmp in self._helpers:
            tmp.close()
        for _, pid, _ in self._helpers[self._reaped:]:
            os.waitpid(pid, 0)

    def hand(self, block: Trajectory) -> Trajectory:
        """Start a helper on the rows of block, the rows that follow the ones
        handed so far, and return block."""
        if len(self._helpers) - self._reaped >= self._cap:
            self._reap(self._reaped)
        starts = range(0, len(block), _CHUNK_ROWS)
        self._helpers.append((self._handed, *_start_helper(_columns(block), starts)))
        self._handed += len(block)
        return block

    def write(self, f) -> None:
        """Write the header and then every handed row to the text file f."""
        f.write(_CSV_HEADER)
        f.flush()  # the helpers' bytes go to f.buffer, after the header
        for i, (_, _, tmp) in enumerate(self._helpers):
            self._reap(i)
            tmp.seek(0)
            shutil.copyfileobj(tmp, f.buffer)
            tmp.close()

    def _reap(self, i: int) -> None:
        """Wait for the helpers up to the i-th, in order; raise OSError for
        one that did not exit with status 0."""
        while self._reaped <= i:
            row, pid, _ = self._helpers[self._reaped]
            status = os.waitpid(pid, 0)[1]
            self._reaped += 1
            if status:
                raise OSError(f"the helper writing CSV rows from {row} exited "
                              f"with status {os.waitstatus_to_exitcode(status)}")


def _columns(traj: Trajectory) -> tuple:
    """The arrays a CSV row is read from, in column order."""
    return traj.t, traj.x, traj.u, traj.s, traj.helicity


def _drifts(blocks) -> dict[str, float]:
    """The drifts of a run given as its blocks, Trajectory objects in row
    order: the largest deviation of the helicity, spin norm and energy from
    their first sample, folded one block at a time.  Max is exact and np.max,
    unlike the builtin max, propagates a NaN block maximum, so the drifts do
    not depend on where the blocks split and a NaN sample gives a NaN drift.
    An overflow or inf - inf gives an inf or NaN drift, not a warning."""
    import numpy as np
    maxima = []
    for block in blocks:
        with np.errstate(over="ignore", invalid="ignore"):
            columns = (block.helicity, (block.s ** 2).sum(axis=1) ** 0.5, block.energy)
            if not maxima:
                firsts = [col[0] for col in columns]
            maxima.append([abs(col - first).max() for col, first in zip(columns, firsts)])
    helicity, spin_norm, energy = np.max(maxima, axis=0)
    return {"helicity_drift": float(helicity), "spin_norm_drift": float(spin_norm),
            "energy_drift": float(energy)}


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _write_chunks(f, columns, starts: range) -> None:
    """Write the rows of the _CHUNK_ROWS-row chunks beginning at starts to
    the text file f, one chunk formatted at a time, by one % of _CSV_ROW
    repeated per row."""
    import numpy as np
    for a in starts:
        rows = np.column_stack([col[a:a + _CHUNK_ROWS] for col in columns])
        f.write((_CSV_ROW * len(rows)) % tuple(rows.ravel().tolist()))


def _start_helper(columns, starts: range):
    """Fork a helper that writes the chunks beginning at starts to a new
    anonymous temporary file; returns (pid, file).  The helper leaves through
    os._exit, so it never returns into the caller or flushes a buffer it
    inherited; its exit status is 0 only when its block is written.  Only
    the forking thread exists in the helper, so it must not call into
    numpy's BLAS thread pool; formatting rows makes no such call."""
    tmp = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        tmp.close()
        raise
    if pid == 0:
        status = 1
        try:
            with open(tmp.fileno(), "w", closefd=False) as out:
                _write_chunks(out, columns, starts)
            status = 0
        finally:
            os._exit(status)
    return pid, tmp


def _split_stepper(fields: FieldConfig, params: ParticleParams, dt: float, c: float):
    """The splitting step from a row (x, u, s) of nine floats to the next,
    with its constants bound.

    One flat function: both Rodrigues rotations and the Thomas-BMT fields of
    _thomas are written out, each float operation in the order the per-state
    formulas use."""
    m, e, et = float(params.m), float(params.e), float(params.etilde)
    E, B = fields.E, fields.B
    # Half electric-type kick (0.5 dt)(e E + et B)/(m c), the numerator
    # e B - et E of the magnetic-type rotation rate, and the precession
    # couplings (-q/mc, g/2 - 1, g/2, E, B) with the sign of ds/dt = w_s x s.
    k0, k1, k2 = (0.5 * dt * ((e * E[i] + et * B[i]) / (m * c)) for i in range(3))
    r0, r1, r2 = (e * B[i] - et * E[i] for i in range(3))
    precession = [(-q, half_g - 1.0, half_g, cE, cB)
                  for q, cE, cB, half_g in _couplings(fields, params, c)]
    dtc = dt * c
    sqrt, sin, cos = math.sqrt, math.sin, math.cos  # closure reads beat math.x lookups

    def step(row: tuple) -> tuple:
        x0, x1, x2, u0, u1, u2, s0, s1, s2 = row
        u0, u1, u2 = u0 + k0, u1 + k1, u2 + k2
        gamma = sqrt(1.0 + (u0 * u0 + u1 * u1 + u2 * u2))

        # Magnetic-type rotation of u about w_u = -(e B - et E)/(gamma m c); the
        # position advances along the exact helical arc of the rotating u.
        gmc = gamma * m * c
        w0, w1, w2 = -(r0 / gmc), -(r1 / gmc), -(r2 / gmc)
        wmag = sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        v0, v1, v2 = u0, u1, u2
        if wmag == 0.0:
            a = dtc / gamma
            x0, x1, x2 = x0 + a * u0, x1 + a * u1, x2 + a * u2
        else:
            theta = wmag * dt
            n0, n1, n2 = w0 / wmag, w1 / wmag, w2 / wmag
            nu = n0 * u0 + n1 * u1 + n2 * u2
            p0, p1, p2 = n0 * nu, n1 * nu, n2 * nu
            q0, q1, q2 = u0 - p0, u1 - p1, u2 - p2
            sin_t, cos_t = sin(theta), cos(theta)
            omc = 1.0 - cos_t
            a = c / gamma
            x0 += a * (p0 * dt + q0 * sin_t / wmag + (n1 * q2 - n2 * q1) * omc / wmag)
            x1 += a * (p1 * dt + q1 * sin_t / wmag + (n2 * q0 - n0 * q2) * omc / wmag)
            x2 += a * (p2 * dt + q2 * sin_t / wmag + (n0 * q1 - n1 * q0) * omc / wmag)
            if theta:
                # Rodrigues rotation of u by theta about n, normalised once
                # more as any axis is: the unit n is not unit to the last bit.
                nmag = sqrt(n0 * n0 + n1 * n1 + n2 * n2)
                n0, n1, n2 = n0 / nmag, n1 / nmag, n2 / nmag
                nu = n0 * u0 + n1 * u1 + n2 * u2
                v0 = u0 * cos_t + (n1 * u2 - n2 * u1) * sin_t + n0 * nu * omc
                v1 = u1 * cos_t + (n2 * u0 - n0 * u2) * sin_t + n1 * nu * omc
                v2 = u2 * cos_t + (n0 * u1 - n1 * u0) * sin_t + n2 * nu * omc

        # Spin precession about the effective field evaluated at the mid-kick u;
        # exact whenever that field is constant along the magnetic rotation.
        ws0 = ws1 = ws2 = 0.0
        if precession:
            b0, b1, b2 = u0 / gamma, u1 / gamma, u2 / gamma
            bb = b0 * b0 + b1 * b1 + b2 * b2
            if not bb < 1.0:  # also rejects NaN
                raise ValueError("boost speed must be below 1")
            g = 1.0 / sqrt(1.0 - bb)
            r, inv_g = g / (g + 1.0), 1.0 / g
            for q, a, half_g, (E0, E1, E2), (B0, B1, B2) in precession:
                along_B = a + inv_g
                along_beta = a * r * (b0 * B0 + b1 * B1 + b2 * B2)
                along_bxE = half_g - r
                ws0 += q * (along_B * B0 - along_beta * b0 - along_bxE * (b1 * E2 - b2 * E1))
                ws1 += q * (along_B * B1 - along_beta * b1 - along_bxE * (b2 * E0 - b0 * E2))
                ws2 += q * (along_B * B2 - along_beta * b2 - along_bxE * (b0 * E1 - b1 * E0))
        ws_mag = sqrt(ws0 * ws0 + ws1 * ws1 + ws2 * ws2)
        angle = ws_mag * dt
        if angle:
            n0, n1, n2 = ws0 / ws_mag, ws1 / ws_mag, ws2 / ws_mag
            cos_a, sin_a = cos(angle), sin(angle)
            ns = n0 * s0 + n1 * s1 + n2 * s2
            omc = 1.0 - cos_a
            s0, s1, s2 = (s0 * cos_a + (n1 * s2 - n2 * s1) * sin_a + n0 * ns * omc,
                          s1 * cos_a + (n2 * s0 - n0 * s2) * sin_a + n1 * ns * omc,
                          s2 * cos_a + (n0 * s1 - n1 * s0) * sin_a + n2 * ns * omc)
        return x0, x1, x2, v0 + k0, v1 + k1, v2 + k2, s0, s1, s2

    return step


def _rk4_stepper(fields: FieldConfig, params: ParticleParams, dt: float, c: float):
    """The classical RK4 step from a row (x, u, s) of nine floats to the next,
    with its constants bound.

    rates writes out the Lorentz force and the _thomas fields of the
    couplings, in the per-state reference's operand order; a dual coupling's
    E is B, so it reuses beta x B."""
    e, et, mc = float(params.e), float(params.etilde), float(params.m) * c
    E0, E1, E2 = fields.E
    B0, B1, B2 = fields.B
    # (q/mc, g/2 - 1, g/2, is it the dual coupling, its B) per coupling:
    # _couplings lists the electric charge's, then the magnetic charge's,
    # each when the charge is not zero.
    is_dual = [False] * (params.e != 0) + [True] * (params.etilde != 0)
    couplings = [(q, half_g - 1.0, half_g, dual, cB)
                 for (q, _, cB, half_g), dual in zip(_couplings(fields, params, c), is_dual)]
    half = dt / 2
    sqrt = math.sqrt  # a closure read beats a math.sqrt lookup

    def rates(u0, u1, u2, s0, s1, s2) -> tuple:
        """(dx/dt, du/dt, ds/dt) at (u, s), as nine floats."""
        g = sqrt(1.0 + (u0 * u0 + u1 * u1 + u2 * u2))
        b0, b1, b2 = u0 / g, u1 / g, u2 / g
        bxB0, bxB1, bxB2 = b1 * B2 - b2 * B1, b2 * B0 - b0 * B2, b0 * B1 - b1 * B0
        bxE0, bxE1, bxE2 = b1 * E2 - b2 * E1, b2 * E0 - b0 * E2, b0 * E1 - b1 * E0
        ds0 = ds1 = ds2 = 0.0
        if couplings:
            bb = b0 * b0 + b1 * b1 + b2 * b2
            if not bb < 1.0:  # also rejects NaN
                raise ValueError("boost speed must be below 1")
            gt = 1.0 / sqrt(1.0 - bb)
            r, inv_gt = gt / (gt + 1.0), 1.0 / gt
            for q, a, half_g, dual, (F0, F1, F2) in couplings:
                x0, x1, x2 = (bxB0, bxB1, bxB2) if dual else (bxE0, bxE1, bxE2)
                along_B = a + inv_gt
                along_beta = a * r * (b0 * F0 + b1 * F1 + b2 * F2)
                along_bxE = half_g - r
                f0 = along_B * F0 - along_beta * b0 - along_bxE * x0
                f1 = along_B * F1 - along_beta * b1 - along_bxE * x1
                f2 = along_B * F2 - along_beta * b2 - along_bxE * x2
                ds0 += q * (s1 * f2 - s2 * f1)
                ds1 += q * (s2 * f0 - s0 * f2)
                ds2 += q * (s0 * f1 - s1 * f0)
        return (c * u0 / g, c * u1 / g, c * u2 / g,
                (e * (E0 + bxB0) + et * (B0 - bxE0)) / mc,
                (e * (E1 + bxB1) + et * (B1 - bxE1)) / mc,
                (e * (E2 + bxB2) + et * (B2 - bxE2)) / mc,
                ds0, ds1, ds2)

    def step(row: tuple) -> tuple:
        x0, x1, x2, u0, u1, u2, s0, s1, s2 = row
        k1 = rates(u0, u1, u2, s0, s1, s2)
        k2 = rates(u0 + half * k1[3], u1 + half * k1[4], u2 + half * k1[5],
                   s0 + half * k1[6], s1 + half * k1[7], s2 + half * k1[8])
        k3 = rates(u0 + half * k2[3], u1 + half * k2[4], u2 + half * k2[5],
                   s0 + half * k2[6], s1 + half * k2[7], s2 + half * k2[8])
        k4 = rates(u0 + dt * k3[3], u1 + dt * k3[4], u2 + dt * k3[5],
                   s0 + dt * k3[6], s1 + dt * k3[7], s2 + dt * k3[8])
        return (x0 + dt * ((k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6),
                x1 + dt * ((k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6),
                x2 + dt * ((k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6),
                u0 + dt * ((k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6),
                u1 + dt * ((k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4]) / 6),
                u2 + dt * ((k1[5] + 2 * k2[5] + 2 * k3[5] + k4[5]) / 6),
                s0 + dt * ((k1[6] + 2 * k2[6] + 2 * k3[6] + k4[6]) / 6),
                s1 + dt * ((k1[7] + 2 * k2[7] + 2 * k3[7] + k4[7]) / 6),
                s2 + dt * ((k1[8] + 2 * k2[8] + 2 * k3[8] + k4[8]) / 6))

    return step


_STEPPERS = {"split": _split_stepper, "rk4": _rk4_stepper}


def _integrate_blocks(state0: PhaseState, fields: FieldConfig, params: ParticleParams,
                      dt: float, steps: int, c: float, scheme: str):
    """Check integrate's arguments, then return its loop: a generator of the
    run's steps + 1 rows as a fresh Trajectory per block of _BLOCK_CHUNKS
    chunks, the first row state0, in row order.

    The loop steps rows (x, u, s) of nine floats from state0, the last row
    and time carried over from one block to the next.  Each block's times
    are one accumulate seeded with the last time before it, so t[k] =
    t[k - 1] + dt keeps its roundings; its helicity and energy are computed
    elementwise, a chunk at a time, by the same float operations as the
    per-state helicity and orbit energy, an overflow giving inf or NaN and no
    warning.
    """
    for name, value in (("dt", dt), ("c", c)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if not isinstance(scheme, str) or scheme not in _STEPPERS:
        raise ValueError(f"scheme must be one of {sorted(_STEPPERS)}, got {scheme!r}")
    step = _STEPPERS[scheme](fields, params, dt, c)

    def blocks():
        import numpy as np
        row, t_last = state0.x + state0.u + state0.s, state0.t
        size = _BLOCK_CHUNKS * _CHUNK_ROWS
        for start in range(0, steps + 1, size):
            n = min(size, steps + 1 - start)
            xus = np.empty((n, 9))  # one row per sample; x, u and s are views of it
            if start == 0:
                xus[0] = row
            try:
                for i in range(1 if start == 0 else 0, n):
                    row = step(row)
                    xus[i] = row
            except ValueError as exc:
                # math's sin and cos raise this for an infinite angle; the
                # step's own errors pass through.
                if exc.args != ("math domain error",):
                    raise
                raise ValueError(f"trajectory is not finite: step {start + i} has an "
                                 f"infinite rotation angle") from None
            # t[k] = t[k - 1] + dt, added in that order from t_last: the
            # first block's first time, or the time of the row before the block
            t = np.full(n if start == 0 else n + 1, dt)
            t[0] = t_last
            np.add.accumulate(t, out=t)
            t = t[-n:]
            t_last = t[-1]
            x, u, s = xus[:, 0:3], xus[:, 3:6], xus[:, 6:9]
            hel, energy = np.empty(n), np.empty(n)
            with np.errstate(over="ignore", invalid="ignore"):
                for a in range(0, n, _CHUNK_ROWS):
                    rows = slice(a, a + _CHUNK_ROWS)
                    ub, sb = u[rows].T, s[rows].T
                    uu = _dot(ub, ub)
                    umag = np.sqrt(uu)
                    hel[rows] = np.divide(_dot(sb, ub), umag, out=np.zeros_like(umag),
                                          where=umag != 0.0)
                    energy[rows] = _hamiltonian(np.sqrt(1.0 + uu), x[rows].T, fields,
                                                params, c)
            yield Trajectory(t=t, x=x, u=u, s=s, helicity=hel, energy=energy)

    return blocks()


def integrate(state0: PhaseState, fields: FieldConfig, params: ParticleParams,
              dt: float, steps: int, c: float = 1.0,
              scheme: str = "split") -> Trajectory:
    """Fixed-step integration; returns steps + 1 samples including the start.

    The whole run's arrays are allocated before the first step, so a run too
    large for memory fails at once; _integrate_blocks's blocks are copied in.
    """
    blocks = _integrate_blocks(state0, fields, params, dt, steps, c, scheme)
    import numpy as np
    n = steps + 1
    try:
        t = np.empty(n)
        xus = np.empty((n, 9))  # one row per sample; x, u and s are views of it
        hel = np.empty(n)
        energy = np.empty(n)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise ValueError(f"steps = {steps} needs more memory than can be allocated") from exc
    traj = Trajectory(t=t, x=xus[:, 0:3], u=xus[:, 3:6], s=xus[:, 6:9], helicity=hel,
                      energy=energy)
    start = 0
    for block in blocks:
        rows = slice(start, start + len(block))
        for name, column in vars(block).items():
            getattr(traj, name)[rows] = column
        start = rows.stop
    return traj


def simulate(state0: PhaseState, fields: FieldConfig, params: ParticleParams,
             dt: float, steps: int, scheme: str, path: str | Path) -> tuple[int, dict]:
    """integrate at c = 1, its CSV written to path while it steps, holding
    one block of rows at a time; returns the sample count and the drifts.

    path is opened first, so a bad path fails before any helper starts.
    Then, after the argument checks and before any step, a run whose CSV
    cannot fit raises ValueError (_check_csv_room).  Each finished block, the
    last one included, goes to a _CsvWriter helper at once and into the
    drift fold, and is then dropped; the helpers' rows reach path only once
    the drifts are known to be finite, a check that raises ValueError.
    """
    with open(path, "w") as f, _CsvWriter() as writer:
        blocks = _integrate_blocks(state0, fields, params, dt, steps, 1.0, scheme)
        _check_csv_room(f, steps)
        drifts = _drifts(writer.hand(block) for block in blocks)
        if not all(map(math.isfinite, drifts.values())):
            raise ValueError(f"trajectory is not finite: {drifts}")
        writer.write(f)
    return steps + 1, drifts


def _check_csv_room(f, steps: int) -> None:
    """Raise ValueError when steps + 1 CSV rows of _MIN_CSV_ROW_BYTES each
    exceed the free space of the temporary directory, where the helpers
    write them, or of the directory of f, the open output, when it is a
    regular file (a device or pipe takes no disk space)."""
    need = (steps + 1) * _MIN_CSV_ROW_BYTES
    directories = [tempfile.gettempdir()]
    if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        directories.append(os.path.dirname(os.path.abspath(f.name)))
    for directory in directories:
        free = shutil.disk_usage(directory).free
        if need > free:
            raise ValueError(f"steps = {steps} needs a CSV of at least {need} bytes, more "
                             f"than the {free} bytes free in {directory}")


# ---------------------------------------------------------------------------
# Dipole boosts

def boost_dipole(mu_p: Vec3, mu_m: Vec3, beta: Vec3) -> tuple[Vec3, Vec3]:
    """The electric and magnetic dipoles (p, m) of a particle moving at beta
    with rest moments (mu_p, mu_m): minus the E and B gradients of the g = 2
    Thomas-BMT energy H = -mu_m.F(beta, E, B) + mu_p.F(beta, B, -E) that the
    integrator precesses with.  F is linear in its fields, so each gradient
    is F on a unit field; the result is p = mu_p/gamma + beta x mu_m/(gamma+1)
    and m = mu_m/gamma - beta x mu_p/(gamma+1).

    Raises ValueError for a vector that is not three numbers, for a boost
    speed that is not below 1 (NaN included) and for a result that is not
    finite.
    """
    mu_p, mu_m, beta = _vec3("mu_p", mu_p), _vec3("mu_m", mu_m), _vec3("beta", beta)
    zero = (0.0, 0.0, 0.0)
    p, m = [], []
    for unit in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        along_E, along_B = _thomas(beta, unit, zero, 1.0), _thomas(beta, zero, unit, 1.0)
        p.append(_dot(mu_m, along_E) + _dot(mu_p, along_B))
        m.append(_dot(mu_m, along_B) - _dot(mu_p, along_E))
    if not all(map(math.isfinite, p + m)):
        raise ValueError(f"boosted dipoles are not finite: p = {p}, m = {m}")
    return tuple(p), tuple(m)


# ---------------------------------------------------------------------------
# Scenario files

def load_scenario(path: str | Path) -> tuple[ParticleParams, FieldConfig, PhaseState, dict]:
    """Read a simulation config: particle, fields, initial state, run block.

    Raises ValueError naming the file for JSON nested too deeply to read,
    and naming the offending field for a missing block or one that is not a
    JSON object, a non-positive mass, a mass, charge, gyro-ratio, field or
    initial value that is not a finite JSON number (a bool or a string is
    not), a vector that is not three numbers, a missing, non-numeric or
    non-positive dt, a missing, negative or non-integer step count, or a
    scheme other than split/rk4.  The returned run block holds exactly dt,
    steps and scheme.
    """
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"scenario {path} nests too deeply to read") from None
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
    if not isinstance(scheme, str) or scheme not in _STEPPERS:
        raise ValueError(f"scenario run.scheme must be one of {sorted(_STEPPERS)}, "
                         f"got {scheme!r}")
    return params, fields, state, {"dt": float(dt), "steps": steps, "scheme": scheme}


def _as_fraction(name: str, value) -> Fraction:
    """Exact value of a finite scenario number: a JSON integer within float
    range, or a JSON float via its repr.  A bool or a string is no number."""
    if type(value) is int and abs(value) <= sys.float_info.max:
        return Fraction(value)
    if type(value) is float and math.isfinite(value):
        return Fraction(repr(value))
    raise ValueError(f"scenario {name} must be a finite number, got {value!r}")


def _vector(name: str, value) -> Vec3:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"scenario {name} must be three numbers, got {value!r}")
    return tuple(float(_as_fraction(name, v)) for v in value)
