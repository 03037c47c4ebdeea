"""Energy-budget accounting, record norms, vertical spectra.

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

A record's gradient norms feed simulate's regularity certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .filters import DeconvSpec, FilterSpec, symbol_table
from .spectral import FieldNorms, VectorField, inner_product, quadratic_form


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
    # || grad w || and || d3^theta grad w ||: not CSV columns
    grad_norm: float
    theta_grad_norm: float
    budget_residual: float = math.nan  # filled when paired across steps

    def __post_init__(self):
        if self.model_energy < 0 or self.dissipation < 0:
            raise ValueError("energy terms must be nonnegative")

    def with_residual(self, value: float) -> "EnergyRecord":
        return replace(self, budget_residual=value)


def gronwall_integrand(norms: FieldNorms, theta: float) -> float:
    """|| grad w ||^{2 - 1/theta} * || d3^theta grad w ||^{1/theta} of
    the field w of `norms`."""
    if theta == 0.0:
        raise ValueError("the integrand exponents need theta > 0")
    return _gronwall(norms.grad(), norms.vertical_grad(theta), theta)


def _gronwall(grad: float, theta_grad: float, theta: float) -> float:
    return (0.0 if grad == 0.0
            else grad ** (2.0 - 1.0 / theta) * theta_grad ** (1.0 / theta))


def energy_terms(w: VectorField, f: VectorField, filt: FilterSpec, order: int,
                 nu: float, t: float = 0.0) -> EnergyRecord:
    """All budget terms of state w and raw forcing f via Fourier
    multipliers: the forcing power is one inner_product, on the box of
    the two fields' smaller cutoffs, and the rest is read from one
    FieldNorms pass.  The forcing goes first, so its temporaries, of the
    band's size for a forcing on the band, are freed before the |w|^2
    pass allocates, or the heap grows each record.
    """
    grid = w.grid
    symbols = symbol_table(grid, DeconvSpec(filt, order))
    forcing_power = inner_product(w, f, symbols.deconv)
    norms = FieldNorms(w)
    weight = symbols.filter * symbols.deconv
    theta = filt.theta
    grad, theta_grad = norms.grad(), norms.vertical_grad(theta)
    return EnergyRecord(
        t=t,
        model_energy=0.5 * quadratic_form(grid, norms.plain, weight),
        dissipation=nu * quadratic_form(grid, norms.full, weight),
        forcing_power=forcing_power,
        l2_norm=norms.l2(),
        theta_seminorm=norms.vertical(theta),
        gronwall_integrand=0.0 if theta == 0.0 else _gronwall(grad, theta_grad, theta),
        grad_norm=grad,
        theta_grad_norm=theta_grad,
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


def vertical_spectrum(norms: FieldNorms) -> list[tuple[int, float]]:
    """Energy per |k3| shell of the field w of `norms`; the shell sum is
    || w ||_2^2 exactly.

    Shell k3 is the stored column k3 times its Parseval weight: the
    columns 0 < k3 < n3/2 also hold their mirrors -k3.
    """
    grid = norms.grid
    shells = grid.volume * grid.parseval_weight.ravel() * norms.plain
    return [(k3, float(e)) for k3, e in enumerate(shells)]
