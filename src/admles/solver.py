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
The nonlinear term is Galerkin-exact on the 2/3-rule band, so the
discrete trilinear form inherits the continuum orthogonality
(div(z x z), z) = 0.

A state is a VectorField on Grid.band, and so is every forcing but a
random one, which keeps its draw's box, and a zero one, its mean mode.
The descriptors of w(0) and f own their config kind (DESCRIPTOR_KINDS),
keys (fields) and checks (__post_init__, check_in_band).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from .diagnostics import EnergyRecord, energy_terms, gronwall_integrand
from .ensembles import EnsembleSpec, draw_vector
from .filters import DeconvSpec, FilterSpec, apply_bar, symbol_table
from .grid import BandWorkspace, Grid, check_band, check_rules, rule_errors
from .spectral import (
    FieldNorms,
    VectorField,
    band_divergence,
    band_inverse,
    field_from_samples,
    l2_distance,
    l2_norm,
    leray_project,
    project_coeffs,
)

CFL_LIMIT = 0.5


# ---------------------------------------------------------------------------
# Initial-condition and forcing descriptors; an error message starts
# with the field it names, so a config parser can prefix its section


@dataclass(frozen=True)
class TaylorGreen:
    """u = A (sin x1 cos x2 cos x3, -cos x1 sin x2 cos x3, 0)."""

    amplitude: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            check_rules([f"amplitude: {self.amplitude} must be finite"])


@dataclass(frozen=True)
class SingleMode:
    """One real cosine mode, amplitude * e * cos(k . x), with e a unit
    vector orthogonal to k (deterministically chosen), so the field is
    divergence-free."""

    k: tuple[int, int, int]
    amplitude: float = 1.0

    def __post_init__(self):
        errors = []
        if len(self.k) != 3 or not all(isinstance(c, Integral) for c in self.k):
            errors.append(f"k: need exactly three integers, got {self.k}")
        if all(c == 0 for c in self.k):
            errors.append("k: needs a nonzero wavevector")
        if not math.isfinite(self.amplitude):
            errors.append(f"amplitude: {self.amplitude} must be finite")
        check_rules(errors)


@dataclass(frozen=True)
class RandomBandLimited:
    """Seeded random divergence-free field; `energy` is the target L2
    norm of the smoothed initial state (normalized after filtering)."""

    seed: int
    band: int
    energy: float = 1.0

    def __post_init__(self):
        errors = []
        if self.band < 1:
            errors.append(f"band: {self.band} must be >= 1")
        if not 0.0 < self.energy < math.inf:
            errors.append(f"energy: {self.energy} must be positive and finite")
        check_rules(errors)


@dataclass(frozen=True)
class ZeroForcing:
    pass


InitDescriptor = TaylorGreen | SingleMode | RandomBandLimited
ForcingDescriptor = ZeroForcing | TaylorGreen | SingleMode | RandomBandLimited

# config kind -> descriptor; every kind but "none" may start a run
DESCRIPTOR_KINDS = {"none": ZeroForcing, "taylor-green": TaylorGreen,
                    "single-mode": SingleMode, "random": RandomBandLimited}


def check_in_band(desc: ForcingDescriptor, grid: Grid) -> None:
    """Raises ValueError, naming the field, if `desc` would put content
    outside the grid's 2/3 band."""
    cutoffs = grid.band.cutoffs
    if isinstance(desc, SingleMode) and any(
            abs(c) > m for c, m in zip(desc.k, cutoffs)):
        raise ValueError(
            f"k: mode {desc.k} lies outside the retained band "
            f"(cutoffs {cutoffs})"
        )
    if isinstance(desc, RandomBandLimited):
        check_band(desc.band, grid.shape)


def _orthogonal_unit(k: np.ndarray) -> np.ndarray:
    # pick the coordinate axis least aligned with k, remove its k part
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(3)
    e[axis] = 1.0
    e -= k * (np.dot(e, k) / np.dot(k, k))
    return e / np.linalg.norm(e)


def _random_draw(desc: RandomBandLimited, grid: Grid) -> VectorField:
    """The divergence-free draw of `desc` on its box (b, b, b)."""
    check_in_band(desc, grid)
    spec = EnsembleSpec(count=1, band_limit=desc.band, seed=desc.seed)
    return draw_vector(spec.rng(), spec, grid)


def descriptor_field(desc: InitDescriptor, grid: Grid) -> VectorField:
    """Raw (unsmoothed) divergence-free field on the 2/3 band: a draw
    embedded in it, or the Leray projection of the band of samples."""
    if isinstance(desc, RandomBandLimited):
        draw = _random_draw(desc, grid)
        return VectorField(grid.band, draw.band.embed(draw.coeffs, grid.band))
    check_in_band(desc, grid)
    x1, x2, x3 = grid.mesh()
    if isinstance(desc, TaylorGreen):
        samples = np.stack(
            [
                desc.amplitude * np.sin(x1) * np.cos(x2) * np.cos(x3),
                -desc.amplitude * np.cos(x1) * np.sin(x2) * np.cos(x3),
                np.zeros(grid.shape),
            ]
        )
    elif isinstance(desc, SingleMode):
        k = np.asarray(desc.k, dtype=float)
        e = _orthogonal_unit(k)
        phase = np.cos(k[0] * x1 + k[1] * x2 + k[2] * x3)
        samples = np.stack([desc.amplitude * e[i] * phase for i in range(3)])
    else:
        raise TypeError(f"unknown descriptor {desc!r}")
    return leray_project(field_from_samples(grid, samples))


def _rescaled(field: VectorField, norm_target: float, what: str) -> VectorField:
    """`field` scaled to L2 norm `norm_target`; a zero draw is an error."""
    norm = l2_norm(field)
    if norm == 0.0:
        raise ValueError(f"{what} drew identically zero")
    return field.with_coeffs(field.coeffs * (norm_target / norm))


def init_field(desc: InitDescriptor, grid: Grid,
               filt: FilterSpec) -> VectorField:
    """Initial state w0 = bar(v0); random fields are rescaled so the
    smoothed state hits the requested L2 norm."""
    w0 = apply_bar(descriptor_field(desc, grid), filt)
    if isinstance(desc, RandomBandLimited):
        w0 = _rescaled(w0, desc.energy, "random initial field")
    return w0


def forcing_field(desc: ForcingDescriptor, grid: Grid) -> VectorField:
    """Steady raw forcing f, divergence-free and unsmoothed: a random
    forcing on its draw's box (b, b, b), rescaled to L2 norm `energy`, a
    zero forcing on the box (0, 0, 0), every other on the 2/3 band.
    """
    if isinstance(desc, ZeroForcing):
        return VectorField(grid.box((0, 0, 0)), np.zeros((3, 1, 1, 1), dtype=complex))
    if isinstance(desc, RandomBandLimited):
        return _rescaled(_random_draw(desc, grid), desc.energy, "random forcing")
    return descriptor_field(desc, grid)


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
        # scalar rules only: they never read grid, filter or the
        # descriptors, so a parser can report them while those fail
        errors = []
        if not 0.0 < self.nu < math.inf:
            errors.append(f"nu: {self.nu} must be positive and finite")
        errors += rule_errors(DeconvSpec, self.filter, self.deconv_order,
                              rename={"order": "deconv_order"})
        if not 0.0 < self.dt < math.inf:
            errors.append(f"dt: {self.dt} must be positive and finite")
        elif not self.t_end >= self.dt:
            errors.append(f"t_end: {self.t_end} must be at least dt={self.dt}")
        elif not math.isfinite(self.t_end / self.dt):
            errors.append(f"t_end: {self.t_end} / dt={self.dt} is not a "
                          f"finite number of steps")
        elif abs(self.num_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            errors.append(f"t_end: {self.t_end} must be an integer multiple "
                          f"of dt={self.dt}")
        if self.output_every < 1:
            errors.append(f"output_every: {self.output_every} must be >= 1")
        check_rules(errors)

    @property
    def deconv(self) -> DeconvSpec:
        return DeconvSpec(self.filter, self.deconv_order)

    @property
    def num_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class SolverState:
    """w at time t after step_index steps, a field on its grid's 2/3
    band."""

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
    """A config's multipliers on the 2/3 band, its raw forcing
    forcing_raw, and what a step writes: k1, the first stage, `samples`,
    the samples of D w, and `cfl`, the CFL number of the step's input.
    A step overwrites k1, samples and the calling thread's workspace of
    the band (work) and hands none of them out, so several trajectories
    may share one.  forcing_raw may be replaced by a field on any box
    inside the band.
    """

    def __init__(self, config: SolverConfig):
        grid = config.grid
        band = grid.band
        self.config = config
        self.band = band
        self.symbols = symbol_table(grid, config.deconv)
        self.forcing_raw = forcing_field(config.forcing, grid)
        self.kmax = grid.max_dealiased_wavenumber
        ksq = band.kd1**2 + band.kd2**2 + band.kd3**2
        self.band_viscous = np.exp(-config.nu * config.dt * ksq)
        self.band_deconv = self.symbols.deconv[..., band.cols]
        self.band_bar = self.symbols.bar[..., band.cols]
        self.k1 = np.empty((3, *band.shape), dtype=np.complex128)
        self.samples = np.empty((3, *grid.shape))
        self.cfl = 0.0

    @property
    def work(self) -> BandWorkspace:
        """The calling thread's workspace of the band on the grid."""
        return self.band.workspace(self.config.grid.shape)

    def band_rhs(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """g(w) = bar f - P bar div(D w x D w) of band coefficients into
        `out`, which may be `w`, and returns `out`.  It overwrites
        `samples`, which hold the samples of D w until the next call, and
        every buffer of `work`.  Modes outside the forcing's box get
        0.0 - c, the bits of (0 / A) - c, so a forcing on any box steps as
        the same forcing embedded in the band."""
        work = self.work
        z = np.multiply(w, self.band_deconv, out=out)
        zs = band_inverse(z, self.samples, work)
        conv = band_divergence(self.band, zs, out, work)
        conv *= self.band_bar
        project_coeffs(self.band, conv, work.half)
        box = self.forcing_raw.band
        bar_f = work.columns.reshape(-1)[:math.prod(box.shape)].reshape(box.shape)
        blocks, a = box.blocks_in(self.band), self.symbols.filter[..., box.cols]
        for f, c in zip(self.forcing_raw.coeffs, conv):
            np.divide(f, a, out=bar_f)
            for mine, theirs in blocks:
                np.subtract(bar_f[mine], c[theirs], out=bar_f[mine])
            np.subtract(0.0, c, out=c)
            for mine, theirs in blocks:
                c[theirs] = bar_f[mine]
        return out

    def max_speed_squared(self) -> float:
        """max |D w|^2 over the samples the last band_rhs built, summed
        as np.sum(samples**2, axis=0) does, one slab of planes at a time;
        it overwrites work.product and work.half.  np.max of the slab
        maxima keeps a NaN."""
        work = self.work
        reals = work.half.reshape(-1).view(np.float64)
        maxima = []
        for planes in work.slabs():
            u0, u1, u2 = self.samples[:, planes]
            sq = np.multiply(u0, u0, out=work.product[:len(u0)])
            square = reals[:u0.size].reshape(u0.shape)
            sq += np.multiply(u1, u1, out=square)
            sq += np.multiply(u2, u2, out=square)
            maxima.append(np.max(sq))
        return np.max(maxima)


def step(state: SolverState, ops: StepOperators) -> SolverState:
    """One IMEX Heun step of ops.config with exact viscous integrating
    factor, into a fresh state; the CFL speed is read off the first
    right-hand side's samples of D w.
    """
    dt = ops.config.dt
    w, k1 = state.w.coeffs, ops.k1
    ops.band_rhs(w, k1)
    speed = float(np.sqrt(ops.max_speed_squared()))
    cfl = ops.cfl = dt * speed * ops.kmax
    if cfl > CFL_LIMIT:
        raise CFLError(
            f"CFL violation at t={state.t:.6g}: dt*max|u|*kmax = {cfl:.3g} "
            f"> {CFL_LIMIT}"
        )
    e = ops.band_viscous
    # predictor = e (w + dt k1) in new; new = e w + (dt/2) (e k1 + k2)
    new = np.multiply(dt, k1)
    new += w
    new *= e
    k2 = ops.band_rhs(new, new)
    k1 *= e
    k1 += k2
    k1 *= 0.5 * dt
    np.multiply(w, e, out=new)
    new += k1
    if not np.all(np.isfinite(new)):
        raise NaNError(f"non-finite coefficients after step to t={state.t + dt:.6g}")
    return SolverState(state.t + dt, state.step_index + 1, state.w.with_coeffs(new))


def initial_state(config: SolverConfig) -> SolverState:
    """w0 = bar(v0) on the 2/3 band."""
    return SolverState(0.0, 0, init_field(config.init, config.grid, config.filter))


class trajectory:
    """Steps `state` to ops.config.t_end, yielding it at output cadence:
    first as given, then at every step index that is a multiple of
    `output_every` and after the final step, counted from the state's own
    step_index.

    `state` is the latest completed step, the one state it holds,
    `max_cfl` the largest CFL number of the steps to it and `stepping_s`
    the seconds spent in step.  Once it stops it holds no StepOperators
    (`ops` is None).
    """

    def __init__(self, ops: StepOperators, state: SolverState):
        self.ops, self.state = ops, state
        self.max_cfl = self.stepping_s = 0.0
        self._started = False

    def __iter__(self):
        return self

    def __next__(self) -> SolverState:
        if self.ops is None:
            raise StopIteration
        if not self._started:
            self._started = True
            return self.state
        config = self.ops.config
        while self.state.step_index < config.num_steps:
            start = time.perf_counter()
            self.state = step(self.state, self.ops)
            self.stepping_s += time.perf_counter() - start
            self.max_cfl = max(self.max_cfl, self.ops.cfl)
            if (self.state.step_index % config.output_every == 0
                    or self.state.step_index == config.num_steps):
                return self.state
        self.ops = None
        raise StopIteration


class _Records(trajectory):
    """A trajectory that yields the energy record of each state instead
    of the state, and sums the seconds spent in energy_terms in
    `records_s`."""

    records_s = 0.0

    def __next__(self) -> EnergyRecord:
        state = super().__next__()
        config = self.ops.config
        start = time.perf_counter()
        record = energy_terms(state.w, self.ops.forcing_raw, config.filter,
                              config.deconv_order, config.nu, state.t)
        self.records_s += time.perf_counter() - start
        return record


def run(config: SolverConfig) -> _Records:
    """Integrate to t_end, yielding the energy record of each state at
    output cadence, initial state first, from a trajectory.  Setup runs
    at the call, so bad descriptors raise before iteration; a CFL
    violation or non-finite state raises SolverAbort from the loop.
    """
    ops = StepOperators(config)
    return _Records(ops, initial_state(config))


# ---------------------------------------------------------------------------
# Continuous-dependence experiment


@dataclass(frozen=True)
class DependenceReport:
    """Perturbation growth against its Gronwall envelope."""

    times: np.ndarray
    delta_norms: np.ndarray
    integrands: np.ndarray
    integrals: np.ndarray
    fitted_c: float

    def envelope(self) -> np.ndarray:
        return self.delta_norms[0] * np.exp(self.fitted_c * self.integrals)


@dataclass(frozen=True)
class DependenceSettings:
    """Size and seed of the dependence_experiment perturbation."""

    epsilon: float
    perturbation_seed: int

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon: {self.epsilon} must be >= 0")


def dependence_experiment(config: SolverConfig, epsilon: float, *,
                          perturbation_seed: int = 1) -> DependenceReport:
    """Base and perturbed runs side by side; fits the envelope constant.

    The perturbed initial state is w0 + epsilon * p with p a normalized
    divergence-free random field.  The integrand is evaluated on the
    perturbed trajectory, and the fitted constant is the smallest C with
    ||dw(t)|| <= ||dw(0)|| exp(C int_0^t integrand ds) at every sample.
    A SolverAbort from either run propagates.
    """
    theta = config.filter.theta
    if theta <= 0.5:
        raise ValueError(
            f"theta={theta}: the dependence estimate needs theta > 1/2 "
            f"(the integrand exponent 1/theta must stay below 2)"
        )
    DependenceSettings(epsilon, perturbation_seed)  # for its checks
    grid = config.grid
    ops = StepOperators(config)
    base = trajectory(ops, initial_state(config))
    p = descriptor_field(RandomBandLimited(perturbation_seed, min(grid.band.cutoffs)),
                         grid)
    p = _rescaled(p, epsilon, "perturbation")
    w0 = base.state.w
    perturbed = trajectory(ops, SolverState(0.0, 0, w0.with_coeffs(w0.coeffs + p.coeffs)))
    del p, w0  # so the trajectories hold the only states

    times, deltas, integrands, integrals = [], [], [], []
    while next(base, None) and next(perturbed, None):
        b, q = base.state, perturbed.state
        integrand = gronwall_integrand(FieldNorms(q.w), theta)
        integrals.append(integrals[-1] + 0.5 * (b.t - times[-1])
                         * (integrands[-1] + integrand) if times else 0.0)
        times.append(b.t)
        deltas.append(l2_distance(q.w, b.w))
        integrands.append(integrand)
        del b, q  # before the next pull steps on

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
        times=np.asarray(times),
        delta_norms=deltas_arr,
        integrands=np.asarray(integrands),
        integrals=integrals_arr,
        fitted_c=fitted,
    )


# ---------------------------------------------------------------------------
# Checkpoints

_MAGIC = b"ADMCKPT3\n"


def write_checkpoint(path, state: SolverState, config: SolverConfig,
                     config_hash: str = "") -> None:
    """Deterministic binary dump of a state on the 2/3 band of the
    config's grid (format in README.md); a state on any other grid or
    box raises ValueError.  The bytes go to a sibling temporary file
    renamed onto `path`, so a failed write never truncates a checkpoint.
    """
    import json
    import os
    import struct

    grid = config.grid
    if (state.w.grid, state.w.band.cutoffs) != (grid, grid.band.cutoffs):
        raise ValueError("checkpoint: the state is not on the 2/3 band of "
                         "the config's grid")
    header = {
        "format": "ADMCKPT3",
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
            np.lib.format.write_array(fh, state.w.coeffs, version=(1, 0))
        os.replace(tmp, path)
    finally:  # the temporary is gone after a successful rename
        if os.path.exists(tmp):
            os.remove(tmp)


def _is_int(value) -> bool:
    """A JSON integer: true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def read_checkpoint(path):
    """Returns (SolverState, header dict) of an ADMCKPT3 checkpoint.
    Anything but a complete checkpoint raises ValueError naming the
    path; write_checkpoint writes neither trailing bytes nor a
    non-finite state, so either means a corrupt file.
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
        if fh.read(1):
            raise ValueError(f"{path}: corrupt checkpoint: bytes after the "
                             f"coefficients")
    try:
        n1, n2, n3 = header["grid"]
        l1, l2, l3 = header["lengths"]
        t, step_index = header["t"], header["step_index"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path}: missing or ill-typed checkpoint header key: {exc!r}"
        ) from exc
    errors = []
    if not all(map(_is_int, (n1, n2, n3))):
        errors.append(f"grid: {header['grid']!r} must be three integers")
    if not all(map(_is_real, (l1, l2, l3))):
        errors.append(f"lengths: {header['lengths']!r} must be three real numbers")
    if not (_is_real(t) and math.isfinite(t)):
        errors.append(f"t: {t!r} must be a finite real number")
    if not (_is_int(step_index) and step_index >= 0):
        errors.append(f"step_index: {step_index!r} must be a nonnegative integer")
    try:
        check_rules(errors)
        grid = Grid(n1, n2, n3, l1, l2, l3)
    except ValueError as exc:
        raise ValueError(f"{path}: ill-typed checkpoint header: "
                         + "; ".join(str(exc).splitlines())) from exc
    band = grid.band
    shape = (3, *band.shape)
    if coeffs.shape != shape or coeffs.dtype != np.complex128:
        raise ValueError(
            f"{path}: coefficients {coeffs.dtype} {coeffs.shape} are not "
            f"complex128 {shape}"
        )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(f"{path}: corrupt checkpoint: non-finite coefficients")
    return SolverState(float(t), step_index, VectorField(band, coeffs)), header
