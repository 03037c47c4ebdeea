"""Energy-budget accounting, regularity norms, vertical spectra.

The controlled quantity is the model energy

    E = 1/2 || A^{1/2} D^{1/2} w ||_2^2,

whose exact semi-discrete balance reads dE/dt + dissipation =
forcing_power with

    dissipation   = nu || grad A^{1/2} D^{1/2} w ||_2^2,
    forcing_power = (D^{1/2} f, D^{1/2} w)        (f the raw forcing),

because pairing the smoothed forcing with the weighted test field
collapses the filter: (bar f, A D w) = (D f, w).  The nonlinear term
drops out exactly thanks to the dealiased product orthogonality.  The
time stepper perturbs this balance at second order, which the
budget-residual convergence test measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .filters import DeconvSpec, FilterSpec, symbol_table
from .spectral import (
    VectorField,
    grad_norm,
    inner_product,
    l2_norm,
    vertical_grad_seminorm,
    vertical_seminorm,
)


@dataclass(frozen=True)
class EnergyRecord:
    """One sampling instant of the energy budget."""

    t: float
    model_energy: float
    dissipation: float
    forcing_power: float
    l2_norm: float
    theta_seminorm: float
    gronwall_integrand: float
    budget_residual: float = math.nan  # filled when paired across steps

    def __post_init__(self):
        if self.model_energy < 0 or self.dissipation < 0:
            raise ValueError("energy terms must be nonnegative")

    def with_residual(self, value: float) -> "EnergyRecord":
        return replace(self, budget_residual=value)


def gronwall_integrand(w: VectorField, theta: float) -> float:
    """|| grad w ||^{2 - 1/theta} * || d3^theta grad w ||^{1/theta}."""
    if theta == 0.0:
        raise ValueError("the integrand exponents need theta > 0")
    gn = grad_norm(w)
    if gn == 0.0:
        return 0.0
    return gn ** (2.0 - 1.0 / theta) * vertical_grad_seminorm(w, theta) ** (
        1.0 / theta
    )


def energy_terms(w: VectorField, f: VectorField, filt: FilterSpec,
                 order: int, nu: float, t: float = 0.0) -> EnergyRecord:
    """All budget terms of one state, via Fourier multipliers."""
    if w.grid != f.grid:
        raise ValueError("state and forcing live on different grids")
    grid = w.grid
    symbols = symbol_table(grid, DeconvSpec(filt, order))
    weight = symbols.filter * symbols.deconv
    mass = np.abs(w.coeffs) ** 2
    model_energy = 0.5 * grid.volume * float(np.sum(weight * mass))
    dissipation = nu * grid.volume * float(
        np.sum(grid.k_squared * weight * mass)
    )
    forcing_power = inner_product(
        f.with_coeffs(f.coeffs * symbols.half_deconv),
        w.with_coeffs(w.coeffs * symbols.half_deconv),
    )
    integrand = 0.0 if filt.theta == 0.0 else gronwall_integrand(w, filt.theta)
    return EnergyRecord(
        t=t,
        model_energy=model_energy,
        dissipation=dissipation,
        forcing_power=forcing_power,
        l2_norm=l2_norm(w),
        theta_seminorm=vertical_seminorm(w, filt.theta),
        gronwall_integrand=integrand,
    )


def budget_residual(first: EnergyRecord, second: EnergyRecord,
                    dt: float) -> float:
    """|dE/dt + mean dissipation - mean forcing| across adjacent records.

    dt is the record spacing; records whose timestamps do not differ by
    dt are rejected.  Scales as O(dt^2) for the order-2 stepper.
    """
    span = second.t - first.t
    if span <= 0 or abs(span - dt) > 1e-9 * max(dt, 1.0):
        raise ValueError(
            f"records are not dt-adjacent: t={first.t} and t={second.t} "
            f"with dt={dt}"
        )
    rate = (second.model_energy - first.model_energy) / dt
    mean_dissipation = 0.5 * (first.dissipation + second.dissipation)
    mean_forcing = 0.5 * (first.forcing_power + second.forcing_power)
    return abs(rate + mean_dissipation - mean_forcing)


def attach_residuals(records: Iterable[EnergyRecord]) -> Iterator[EnergyRecord]:
    """Pair each record with its predecessor as it arrives; the first
    keeps NaN.  Lazy, so a run can be streamed through it."""
    records = iter(records)
    prev = next(records, None)
    if prev is None:
        raise ValueError("empty trajectory")
    yield prev
    for cur in records:
        yield cur.with_residual(budget_residual(prev, cur, cur.t - prev.t))
        prev = cur


def regularity_norms(states: Iterable, filt: FilterSpec) -> dict[str, float]:
    """Discrete membership certificates for the regularity class.

    sup-in-time of ||w||_2 and ||d3^theta w||_2, and trapezoid
    time-integrals of ||grad w||_2^2 and ||d3^theta grad w||_2^2,
    over a trajectory of states (attributes t and w), in one pass.
    """
    theta = filt.theta
    sup_l2 = 0.0
    sup_theta = 0.0
    times = []
    grads_sq = []
    theta_grads_sq = []
    for s in states:
        sup_l2 = max(sup_l2, l2_norm(s.w))
        sup_theta = max(sup_theta, vertical_seminorm(s.w, theta))
        times.append(s.t)
        grads_sq.append(grad_norm(s.w) ** 2)
        theta_grads_sq.append(vertical_grad_seminorm(s.w, theta) ** 2)
    if not times:
        raise ValueError("empty trajectory")
    return {
        "sup_l2": sup_l2,
        "sup_theta_seminorm": sup_theta,
        "integral_grad_sq": float(np.trapezoid(grads_sq, times)),
        "integral_theta_grad_sq": float(np.trapezoid(theta_grads_sq, times)),
    }


def vertical_spectrum(w: VectorField) -> list[tuple[int, float]]:
    """Energy per |k3| shell; the shell sum is || w ||_2^2 exactly."""
    grid = w.grid
    mass = grid.volume * np.sum(np.abs(w.coeffs) ** 2, axis=(0, 1, 2))
    k3_idx = np.abs(grid.index_axis(2))
    shells = {}
    for pos in range(grid.n3):
        shells[int(k3_idx[pos])] = shells.get(int(k3_idx[pos]), 0.0) + float(
            mass[pos]
        )
    return sorted(shells.items())
