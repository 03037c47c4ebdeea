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

RecordFold is the one reader of consecutive records: it pairs each with
the one before for the budget residual, and folds the records into
simulate's end-of-run checks and its regularity certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __post_init__(self):
        if self.model_energy < 0 or self.dissipation < 0:
            raise ValueError("energy terms must be nonnegative")


# the columns of diagnostics.csv: a record's fields and, from RecordFold,
# its budget residual
CSV_COLUMNS = (
    "t", "model_energy", "dissipation", "forcing_power", "budget_residual",
    "l2_norm", "theta_seminorm", "gronwall_integrand",
)


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


def budget_residual(first: EnergyRecord, second: EnergyRecord) -> float:
    """|dE/dt + mean dissipation - mean forcing| across two records, with
    dt their spacing.  Scales as O(dt^2) for the order-2 stepper."""
    dt = second.t - first.t
    rate = (second.model_energy - first.model_energy) / dt
    mean_dissipation = 0.5 * (first.dissipation + second.dissipation)
    mean_forcing = 0.5 * (first.forcing_power + second.forcing_power)
    return abs(rate + mean_dissipation - mean_forcing)


class RecordFold:
    """A run's records, folded in one at a time so that none is kept but
    the last: their count, how many have a non-finite CSV cell outside
    budget_residual (the first record's is NaN), E(0), the energy's
    rises, and the regularity certificate: the sups of ||w|| and
    ||d3^theta w|| and the trapezoid time-integrals of ||grad w||^2 and
    ||d3^theta grad w||^2."""

    def __init__(self):
        self.count = self.nonfinite = self.rises = 0
        self.first = self.last = None
        self.certificate = {"sup_l2": 0.0, "sup_theta_seminorm": 0.0,
                            "integral_grad_sq": 0.0, "integral_theta_grad_sq": 0.0}

    def add(self, rec: EnergyRecord) -> float:
        """Folds in `rec` and returns its budget residual against the
        record before it, NaN for the first."""
        self.nonfinite += not all(math.isfinite(getattr(rec, column))
                                  for column in CSV_COLUMNS
                                  if column != "budget_residual")
        cert, last = self.certificate, self.last
        cert["sup_l2"] = max(cert["sup_l2"], rec.l2_norm)
        cert["sup_theta_seminorm"] = max(cert["sup_theta_seminorm"], rec.theta_seminorm)
        if last is None:
            self.first = rec.model_energy
            residual = math.nan
        else:
            residual = budget_residual(last, rec)
            self.rises += rec.model_energy > last.model_energy * (1.0 + 1e-12)
            half = 0.5 * (rec.t - last.t)
            cert["integral_grad_sq"] += half * (last.grad_norm**2 + rec.grad_norm**2)
            cert["integral_theta_grad_sq"] += half * (last.theta_grad_norm**2
                                                      + rec.theta_grad_norm**2)
        self.count += 1
        self.last = rec
        return residual


def vertical_spectrum(norms: FieldNorms) -> list[tuple[int, float]]:
    """Energy per |k3| shell of the field w of `norms`; the shell sum is
    || w ||_2^2 exactly.

    Shell k3 is the stored column k3 times its Parseval weight: the
    columns 0 < k3 < n3/2 also hold their mirrors -k3.
    """
    grid = norms.grid
    shells = grid.volume * grid.parseval_weight.ravel() * norms.plain
    return [(k3, float(e)) for k3, e in enumerate(shells)]
