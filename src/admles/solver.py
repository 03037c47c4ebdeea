"""Time integration of the filtered deconvolution model

    dw/dt + bar(div(D_N w x D_N w)) - nu Lap w + grad q = bar f,
    div w = 0,    w(0) = bar(v0),

on the periodic box.  The pressure is eliminated by Leray projection.

Time scheme: explicit Heun for the nonlinear term and forcing, with the
viscous part integrated exactly through the factor E = exp(-nu |k|^2 dt)
(pure viscous decay is then exact for every dt):

    k1 = g(w)
    w* = E (w + dt k1)
    w' = E w + (dt/2) (E k1 + g(w*))

This is second order, which the energy-budget convergence tests rely on.
The nonlinear term is Galerkin-exact: fields live in the 2/3-rule band,
products are formed in physical space, and the retained modes of the
result are alias-free, so the discrete trilinear form inherits the
continuum orthogonality (div(z x z), z) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np

from .diagnostics import EnergyRecord, energy_terms, gronwall_integrand
from .ensembles import EnsembleSpec, draw_vector
from .filters import DeconvSpec, FilterSpec, apply_bar, symbol_table
from .grid import Grid
from .spectral import (
    VectorField,
    dealias,
    inverse_transform,
    l2_norm,
    leray_project,
    tensor_divergence,
    vector_from_samples,
)

CFL_LIMIT = 0.5


# ---------------------------------------------------------------------------
# Initial-condition and forcing descriptors


@dataclass(frozen=True)
class TaylorGreen:
    """u = A (sin x1 cos x2 cos x3, -cos x1 sin x2 cos x3, 0)."""

    amplitude: float = 1.0


@dataclass(frozen=True)
class SingleMode:
    """One real cosine mode, amplitude * e * cos(k . x), with e a unit
    vector orthogonal to k (deterministically chosen), so the field is
    divergence-free."""

    k: tuple[int, int, int]
    amplitude: float = 1.0


@dataclass(frozen=True)
class RandomBandLimited:
    """Seeded random divergence-free field; `energy` is the target L2
    norm of the smoothed initial state (normalized after filtering)."""

    seed: int
    band: int
    energy: float = 1.0


@dataclass(frozen=True)
class ZeroForcing:
    pass


InitDescriptor = TaylorGreen | SingleMode | RandomBandLimited
ForcingDescriptor = ZeroForcing | TaylorGreen | SingleMode | RandomBandLimited


def _orthogonal_unit(k: np.ndarray) -> np.ndarray:
    # pick the coordinate axis least aligned with k, remove its k part
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(3)
    e[axis] = 1.0
    e -= k * (np.dot(e, k) / np.dot(k, k))
    return e / np.linalg.norm(e)


def descriptor_field(desc: InitDescriptor, grid: Grid) -> VectorField:
    """Raw (unsmoothed) field: divergence-free, 2/3-band-limited."""
    if isinstance(desc, TaylorGreen):
        x1, x2, x3 = grid.mesh()
        zeros = np.zeros(grid.shape)
        samples = np.stack(
            [
                desc.amplitude * np.sin(x1) * np.cos(x2) * np.cos(x3),
                -desc.amplitude * np.cos(x1) * np.sin(x2) * np.cos(x3),
                zeros,
            ]
        )
        return leray_project(dealias(vector_from_samples(grid, samples)))
    if isinstance(desc, SingleMode):
        k = np.asarray(desc.k, dtype=float)
        if np.all(k == 0):
            raise ValueError("single_mode needs a nonzero wavevector")
        for axis in range(3):
            if abs(desc.k[axis]) > grid.dealias_cutoff(axis):
                raise ValueError(
                    f"mode {desc.k} lies outside the retained band "
                    f"(cutoff {grid.dealias_cutoff(axis)} on axis {axis})"
                )
        e = _orthogonal_unit(k)
        x1, x2, x3 = grid.mesh()
        phase = np.cos(k[0] * x1 + k[1] * x2 + k[2] * x3)
        samples = np.stack([desc.amplitude * e[i] * phase for i in range(3)])
        return leray_project(vector_from_samples(grid, samples))
    if isinstance(desc, RandomBandLimited):
        cutoff = min(grid.dealias_cutoff(axis) for axis in range(3))
        if desc.band > cutoff:
            raise ValueError(
                f"band {desc.band} lies outside the retained band (cutoff {cutoff})"
            )
        spec = EnsembleSpec(count=1, band_limit=desc.band, seed=desc.seed)
        return draw_vector(spec.rng(), spec, grid)
    raise TypeError(f"unknown descriptor {desc!r}")


def init_field(desc: InitDescriptor, grid: Grid,
               filt: FilterSpec) -> VectorField:
    """Initial state w0 = bar(v0); random fields are rescaled so the
    smoothed state hits the requested L2 norm."""
    w0 = apply_bar(descriptor_field(desc, grid), filt)
    if isinstance(desc, RandomBandLimited):
        norm = l2_norm(w0)
        if norm == 0.0:
            raise ValueError("random initial field drew identically zero")
        w0 = VectorField(grid, w0.coeffs * (desc.energy / norm))
    return w0


def forcing_field(desc: ForcingDescriptor, grid: Grid) -> VectorField:
    """Steady forcing f: divergence-free, band-limited, unfiltered.

    The solver applies the bar smoothing when assembling the right-hand
    side; diagnostics pair the raw f with deconvolved states.  Random
    descriptors are rescaled so the raw forcing has L2 norm `energy`.
    """
    if isinstance(desc, ZeroForcing):
        return VectorField(grid, np.zeros((3, *grid.shape), dtype=complex))
    f = descriptor_field(desc, grid)
    if isinstance(desc, RandomBandLimited):
        norm = l2_norm(f)
        if norm == 0.0:
            raise ValueError("random forcing drew identically zero")
        f = VectorField(grid, f.coeffs * (desc.energy / norm))
    return f


# ---------------------------------------------------------------------------
# Configuration and state


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    nu: float
    filter: FilterSpec
    deconv_order: int
    dt: float
    t_end: float
    init: InitDescriptor = dc_field(default_factory=TaylorGreen)
    forcing: ForcingDescriptor = dc_field(default_factory=ZeroForcing)
    output_every: int = 1

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu={self.nu} must be positive")
        if self.dt <= 0:
            raise ValueError(f"dt={self.dt} must be positive")
        if self.t_end < self.dt:
            raise ValueError(f"t_end={self.t_end} must be at least dt={self.dt}")
        if self.output_every < 1:
            raise ValueError(f"output_every={self.output_every} must be >= 1")
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end={self.t_end} must be an integer multiple of dt={self.dt}"
            )

    @property
    def deconv(self) -> DeconvSpec:
        return DeconvSpec(self.filter, self.deconv_order)

    @property
    def num_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class SolverState:
    t: float
    step_index: int
    w: VectorField


class SolverAbort(RuntimeError):
    """Integration stopped early (CFL violation or non-finite state)."""


class CFLError(SolverAbort):
    pass


class NaNError(SolverAbort):
    pass


# ---------------------------------------------------------------------------
# Right-hand side and stepping


class StepOperators:
    """Per-config precomputed multiplier arrays for the stepper."""

    def __init__(self, config: SolverConfig):
        grid = config.grid
        self.config = config
        self.viscous_factor = np.exp(-config.nu * config.dt * grid.k_squared)
        self.symbols = symbol_table(grid, config.deconv)
        f_raw = forcing_field(config.forcing, grid)
        self.forcing_raw = f_raw
        self.forcing_smoothed = apply_bar(f_raw, config.filter)
        self.kmax = grid.max_dealiased_wavenumber

    def rhs(self, w: VectorField) -> np.ndarray:
        """g(w) = -P bar div(Dw x Dw) + bar f, as a coefficient array."""
        return self.rhs_and_speed(w)[0]

    def rhs_and_speed(self, w: VectorField) -> tuple[np.ndarray, float]:
        """g(w) and max |Dw|, read off the samples its nonlinear term builds."""
        grid = self.config.grid
        z = VectorField(grid, w.coeffs * self.symbols.deconv)
        zs = inverse_transform(grid, z.coeffs)
        speed = float(np.sqrt(np.max(np.sum(zs**2, axis=0))))
        t = tensor_divergence(z, u_samples=zs).coeffs * self.symbols.bar
        del z, zs  # free them before the projection's temporaries
        conv = leray_project(VectorField(grid, t))
        return self.forcing_smoothed.coeffs - conv.coeffs, speed


def step(state: SolverState, config: SolverConfig,
         ops: StepOperators | None = None) -> SolverState:
    """One IMEX Heun step with exact viscous integrating factor.

    The CFL speed comes from the first right-hand side evaluation, which
    already holds the samples of Dw.
    """
    if ops is None:
        ops = StepOperators(config)
    dt = config.dt
    w = state.w
    k1, speed = ops.rhs_and_speed(w)
    cfl = dt * speed * ops.kmax
    if cfl > CFL_LIMIT:
        raise CFLError(
            f"CFL violation at t={state.t:.6g}: dt*max|u|*kmax = {cfl:.3g} "
            f"> {CFL_LIMIT}"
        )
    e = ops.viscous_factor
    predictor = VectorField(config.grid, e * (w.coeffs + dt * k1))
    k2 = ops.rhs(predictor)
    new_coeffs = e * w.coeffs + 0.5 * dt * (e * k1 + k2)
    if not np.all(np.isfinite(new_coeffs)):
        raise NaNError(f"non-finite coefficients after step to t={state.t + dt:.6g}")
    return SolverState(
        t=state.t + dt,
        step_index=state.step_index + 1,
        w=VectorField(config.grid, new_coeffs),
    )


def initial_state(config: SolverConfig) -> SolverState:
    return SolverState(
        t=0.0, step_index=0, w=init_field(config.init, config.grid, config.filter)
    )


def trajectory(config: SolverConfig, state: SolverState,
               ops: StepOperators) -> Iterator[SolverState]:
    """Steps `state` to t_end, yielding it at output cadence: first as
    given, then every `output_every` steps and after the final step."""
    yield state
    for n in range(config.num_steps):
        state = step(state, config, ops)
        if (n + 1) % config.output_every == 0 or n + 1 == config.num_steps:
            yield state


def run(config: SolverConfig) -> Iterator[tuple[SolverState, EnergyRecord]]:
    """Integrate to t_end, yielding (state, energy record) at output
    cadence, initial state first, and keeping none of them.

    Setup runs at the call, so bad descriptors raise before iteration; a
    CFL violation or non-finite state raises SolverAbort from the loop.
    """
    ops = StepOperators(config)
    return ((s, energy_terms(s.w, ops.forcing_raw, config.filter,
                             config.deconv_order, config.nu, t=s.t))
            for s in trajectory(config, initial_state(config), ops))


# ---------------------------------------------------------------------------
# Continuous-dependence experiment


@dataclass(frozen=True)
class DependenceReport:
    """Perturbation growth against its Gronwall envelope."""

    epsilon: float
    theta: float
    times: np.ndarray
    delta_norms: np.ndarray
    integrands: np.ndarray
    integrals: np.ndarray
    fitted_c: float

    def envelope(self, c: float | None = None) -> np.ndarray:
        c = self.fitted_c if c is None else c
        return self.delta_norms[0] * np.exp(c * self.integrals)


def dependence_experiment(config: SolverConfig, epsilon: float, *,
                          perturbation_seed: int = 1) -> DependenceReport:
    """Base and perturbed runs side by side; fits the envelope constant.

    The two runs are trajectories that share one StepOperators, zipped
    at output cadence; neither is stored.  The perturbed initial state
    is w0 + epsilon * p with p a normalized divergence-free random field.
    The integrand is evaluated on the perturbed trajectory, and the
    fitted constant is the smallest C with
    ||dw(t)|| <= ||dw(0)|| exp(C int_0^t integrand ds) at every sample.
    A SolverAbort from either run propagates.
    """
    theta = config.filter.theta
    if theta <= 0.5:
        raise ValueError(
            f"theta={theta}: the dependence estimate needs theta > 1/2 "
            f"(the integrand exponent 1/theta must stay below 2)"
        )
    if epsilon < 0:
        raise ValueError(f"epsilon={epsilon} must be nonnegative")
    grid = config.grid
    ops = StepOperators(config)
    base = initial_state(config)
    band = min(grid.dealias_cutoff(axis) for axis in range(3))
    pspec = EnsembleSpec(count=1, band_limit=band, seed=perturbation_seed)
    p = draw_vector(pspec.rng(), pspec, grid)
    p_norm = l2_norm(p)
    if p_norm == 0.0:
        raise ValueError("perturbation drew identically zero")
    perturbed = SolverState(
        t=0.0,
        step_index=0,
        w=VectorField(grid, base.w.coeffs + (epsilon / p_norm) * p.coeffs),
    )

    times, deltas, integrands, integrals = [], [], [], []
    for b, q in zip(trajectory(config, base, ops),
                    trajectory(config, perturbed, ops)):
        integrand = gronwall_integrand(q.w, theta)
        integrals.append(integrals[-1] + 0.5 * (b.t - times[-1])
                         * (integrands[-1] + integrand) if times else 0.0)
        times.append(b.t)
        deltas.append(l2_norm(VectorField(grid, q.w.coeffs - b.w.coeffs)))
        integrands.append(integrand)

    deltas_arr = np.asarray(deltas)
    integrals_arr = np.asarray(integrals)
    fitted = 0.0
    if deltas_arr[0] > 0.0:
        with np.errstate(divide="ignore"):
            log_growth = np.log(deltas_arr[1:] / deltas_arr[0])
        valid = integrals_arr[1:] > 0.0
        if np.any(valid):
            fitted = float(np.max(log_growth[valid] / integrals_arr[1:][valid]))
    return DependenceReport(
        epsilon=epsilon,
        theta=theta,
        times=np.asarray(times),
        delta_norms=deltas_arr,
        integrands=np.asarray(integrands),
        integrals=integrals_arr,
        fitted_c=fitted,
    )


# ---------------------------------------------------------------------------
# Checkpoints

_MAGIC = b"ADMCKPT1\n"


def write_checkpoint(path, state: SolverState, config: SolverConfig,
                     config_hash: str = "") -> None:
    """Deterministic binary dump: magic, length-prefixed JSON header,
    then the raw coefficient array in the standard npy layout.

    The bytes go to a sibling temporary file that then replaces `path`
    in one rename, so a kill or an I/O error mid-write leaves either the
    previous file or none, never a truncated checkpoint.
    """
    import json
    import os
    import struct

    grid = config.grid
    header = {
        "format": "ADMCKPT1",
        "grid": [grid.n1, grid.n2, grid.n3],
        "lengths": [grid.L1, grid.L2, grid.L3],
        "t": state.t,
        "step_index": state.step_index,
        "nu": config.nu,
        "alpha": config.filter.alpha,
        "theta": config.filter.theta,
        "deconv_order": config.deconv_order,
        "dt": config.dt,
        "config_hash": config_hash,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)
            np.lib.format.write_array(
                fh, np.ascontiguousarray(state.w.coeffs), version=(1, 0)
            )
        os.replace(tmp, path)
    finally:  # the temporary is gone after a successful rename
        if os.path.exists(tmp):
            os.remove(tmp)


def read_checkpoint(path):
    """Returns (SolverState, header dict).

    Anything but a complete checkpoint raises ValueError naming the
    path: a bad magic, a short read, a missing or ill-typed header key,
    or coefficients whose shape is not (3, *header grid) or whose dtype
    is not complex128.
    """
    import json
    import struct

    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: truncated checkpoint (no header length)")
        (length,) = struct.unpack("<Q", prefix)
        blob = fh.read(length)
        if len(blob) != length:
            raise ValueError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(blob.decode())
            coeffs = np.lib.format.read_array(fh)
        except ValueError as exc:  # also JSON, UTF-8 and npy EOF errors
            raise ValueError(f"{path}: corrupt checkpoint: {exc}") from exc
    try:
        n1, n2, n3 = header["grid"]
        l1, l2, l3 = header["lengths"]
        grid = Grid(n1, n2, n3, l1, l2, l3)
        t = float(header["t"])
        step_index = int(header["step_index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: missing or ill-typed checkpoint header key: {exc!r}"
        ) from exc
    if coeffs.shape != (3, *grid.shape) or coeffs.dtype != np.complex128:
        raise ValueError(
            f"{path}: coefficients {coeffs.dtype} {coeffs.shape} are not "
            f"complex128 (3, *{grid.shape})"
        )
    state = SolverState(t=t, step_index=step_index, w=VectorField(grid, coeffs))
    return state, header
