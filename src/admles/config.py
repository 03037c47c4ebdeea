"""Run configuration: a flat INI file with typed, fully validated keys.

One file drives every subcommand.  Parsing never stops at the first
problem; all violations are collected and reported together, each
naming the offending ``section.key`` and the precondition it broke.
Unknown sections or keys are errors, not warnings, so a typo cannot
silently fall back to a default, and a float key must be finite.

The ``[init]`` and ``[forcing]`` kinds, keys and checks come from the
descriptor classes of ``solver`` (``DESCRIPTOR_KINDS``, their fields,
``check_in_band``), whose messages this module prefixes with the section.

The effective configuration (defaults merged with overrides) is
serialized to canonical JSON and hashed; every artifact a run writes
carries that hash, making it detectable when files from different
configurations are mixed.  The output directory is excluded from the
hash: it says where artifacts go, not what they are.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

from .filters import FilterSpec
from .grid import Grid
from .inequalities import LEMMAS
from .solver import DESCRIPTOR_KINDS, SolverConfig, ZeroForcing, check_in_band

_TWO_PI = 2.0 * math.pi

# section -> key -> (parser kind, default); the single source of truth
# for what may appear in a config file
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "run": {
        "seed": ("int", 0),
        "output_dir": ("str", "out"),
    },
    "grid": {
        "n1": ("int", 32),
        "n2": ("int", 32),
        "n3": ("int", 32),
        "l1": ("float", _TWO_PI),
        "l2": ("float", _TWO_PI),
        "l3": ("float", _TWO_PI),
    },
    "filter": {
        "alpha": ("float", 0.5),
        "theta": ("float", 1.0),
    },
    "solver": {
        "nu": ("float", 0.1),
        "deconv_order": ("int", 1),
        "dt": ("float", 0.005),
        "t_end": ("float", 0.5),
        "output_every": ("int", 1),
    },
    "init": {
        "kind": ("str", "taylor-green"),
        "amplitude": ("float", 1.0),
        "k": ("ints", (0, 0, 1)),
        "seed": ("int", 0),
        "band": ("int", 4),
        "energy": ("float", 1.0),
    },
    "forcing": {
        "kind": ("str", "none"),
        "amplitude": ("float", 1.0),
        "k": ("ints", (0, 0, 1)),
        "seed": ("int", 1),
        "band": ("int", 4),
        "energy": ("float", 1.0),
    },
    "operators": {
        "k3_max": ("int", 64),
        "alpha_values": ("floats", (0.1, 0.5, 1.0, 2.0)),
        "theta_values": ("floats", (0.51, 0.75, 1.0)),
        "order_values": ("ints", tuple(range(11))),
    },
    "inequalities": {
        "lemmas": ("strs", LEMMAS),
        "count": ("int", 100),
        "band": ("int", 5),
        "amplitude_decay": ("float", 1.0),
        "s_values": ("floats", (0.6, 0.75, 1.0)),
        "resolution": ("int", 32),
        "line_length": ("int", 256),
    },
    "dependence": {
        "epsilon": ("float", 1e-6),
        "perturbation_seed": ("int", 1),
    },
    "spectrum": {
        "checkpoint": ("str", ""),
    },
}

class ConfigError(ValueError):
    """All validation problems of one parse, not just the first."""

    def __init__(self, errors: list[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class OperatorSweep:
    k3_max: int
    alpha_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    order_values: tuple[int, ...]


@dataclass(frozen=True)
class InequalitySweep:
    lemmas: tuple[str, ...]
    count: int
    band: int
    amplitude_decay: float
    s_values: tuple[float, ...]
    resolution: int
    line_length: int


@dataclass(frozen=True)
class DependenceSettings:
    epsilon: float
    perturbation_seed: int


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, fully validated."""

    solver: SolverConfig
    seed: int
    output_dir: str
    operators: OperatorSweep
    inequalities: InequalitySweep
    dependence: DependenceSettings
    spectrum_checkpoint: str
    effective: dict

    def config_hash(self) -> str:
        return hash_effective(self.effective)


def hash_effective(effective: dict) -> str:
    """sha256 of the canonical JSON form, ignoring the output location."""
    reduced = {
        section: {k: v for k, v in body.items()
                  if not (section == "run" and k == "output_dir")}
        for section, body in effective.items()
    }
    text = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_scalar(kind: str, raw: str):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "str":
        return raw.strip()
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if kind == "ints":
        return tuple(int(p) for p in items)
    if kind == "floats":
        return tuple(float(p) for p in items)
    if kind == "strs":
        return tuple(items)
    raise AssertionError(kind)


def _read_values(text: str, errors: list[str]) -> dict[str, dict]:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    # every key starts at its default, kept if its value is unparsable
    # or not finite
    values = {s: {k: d for k, (_, d) in body.items()}
              for s, body in _SCHEMA.items()}
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        errors.append(f"config syntax: {exc}")
        return values

    for section in parser.sections():
        name = section.lower()
        if name not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[name]:
                errors.append(f"unknown key {name}.{key}")
                continue
            kind = _SCHEMA[name][key][0]
            try:
                value = _parse_scalar(kind, raw)
            except ValueError:
                errors.append(
                    f"{name}.{key}: cannot parse {raw!r} as {kind}"
                )
                continue
            if value == ():
                errors.append(f"{name}.{key}: must list at least one value")
            scalars = value if kind == "floats" else (value,)
            if kind in ("float", "floats") and not all(
                    math.isfinite(x) for x in scalars):
                errors.append(f"{name}.{key}: {raw} must be finite")
                continue
            values[name][key] = value
    return values


def _build_descriptor(body: dict, section: str, errors: list[str]):
    allowed = [kind for kind, cls in DESCRIPTOR_KINDS.items()
               if section == "forcing" or cls is not ZeroForcing]
    if body["kind"] not in allowed:
        errors.append(f"{section}.kind: {body['kind']!r} is not one of "
                      f"{', '.join(allowed)}")
        return None
    cls = DESCRIPTOR_KINDS[body["kind"]]
    try:
        return cls(**{f.name: body[f.name] for f in fields(cls)})
    except ValueError as exc:
        errors.append(f"{section}.{exc}")
        return None


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    errors: list[str] = []
    values = _read_values(text, errors)

    grid = None
    try:
        grid = Grid(
            values["grid"]["n1"], values["grid"]["n2"], values["grid"]["n3"],
            values["grid"]["l1"], values["grid"]["l2"], values["grid"]["l3"],
        )
    except ValueError as exc:
        errors.append(f"grid: {exc}")

    filt = None
    try:
        filt = FilterSpec(values["filter"]["alpha"], values["filter"]["theta"])
    except ValueError as exc:
        errors.append(f"filter: {exc}")

    init = _build_descriptor(values["init"], "init", errors)
    forcing = _build_descriptor(values["forcing"], "forcing", errors)
    for section, desc in (("init", init), ("forcing", forcing)):
        if grid is not None and desc is not None:
            try:
                check_in_band(desc, grid)
            except ValueError as exc:
                errors.append(f"{section}.{exc}")
    sol = values["solver"]
    if sol["deconv_order"] < 0:
        errors.append(f"solver.deconv_order: {sol['deconv_order']} must be >= 0")
    if sol["nu"] <= 0:
        errors.append(f"solver.nu: {sol['nu']} must be positive")
    if sol["dt"] <= 0:
        errors.append(f"solver.dt: {sol['dt']} must be positive")
    if sol["output_every"] < 1:
        errors.append(f"solver.output_every: {sol['output_every']} must be >= 1")
    if sol["dt"] > 0:
        if sol["t_end"] < sol["dt"]:
            errors.append(
                f"solver.t_end: {sol['t_end']} must be at least dt={sol['dt']}"
            )
        elif not math.isfinite(sol["t_end"] / sol["dt"]):
            errors.append(
                f"solver.t_end: {sol['t_end']} / dt={sol['dt']} is not a "
                f"finite number of steps"
            )
        else:
            steps = round(sol["t_end"] / sol["dt"])
            if abs(steps * sol["dt"] - sol["t_end"]) > 1e-9 * sol["t_end"]:
                errors.append(
                    f"solver.t_end: {sol['t_end']} must be an integer "
                    f"multiple of dt={sol['dt']}"
                )

    solver = None
    if grid is not None and filt is not None and init is not None \
            and forcing is not None and not errors:
        try:
            solver = SolverConfig(
                grid=grid,
                nu=values["solver"]["nu"],
                filter=filt,
                deconv_order=values["solver"]["deconv_order"],
                dt=values["solver"]["dt"],
                t_end=values["solver"]["t_end"],
                init=init,
                forcing=forcing,
                output_every=values["solver"]["output_every"],
            )
        except ValueError as exc:
            errors.append(f"solver: {exc}")

    ops = values["operators"]
    if ops["k3_max"] < 1:
        errors.append(f"operators.k3_max: {ops['k3_max']} must be >= 1")
    for a in ops["alpha_values"]:
        if a <= 0:
            errors.append(f"operators.alpha_values: {a} must be positive")
    for t in ops["theta_values"]:
        if not 0.0 <= t <= 1.0:
            errors.append(
                f"operators.theta_values: theta={t} must lie in [0, 1]"
            )
    for n in ops["order_values"]:
        if n < 0:
            errors.append(f"operators.order_values: {n} must be >= 0")

    ineq = values["inequalities"]
    for lemma in ineq["lemmas"]:
        if lemma not in LEMMAS:
            errors.append(
                f"inequalities.lemmas: {lemma!r} is not one of "
                f"{', '.join(LEMMAS)}"
            )
    for key, low in (("count", 1), ("band", 1), ("resolution", 4)):
        if ineq[key] < low:
            errors.append(f"inequalities.{key}: {ineq[key]} must be >= {low}")
    for key in ("resolution", "line_length"):
        # the upsamplers split an even spectrum's Nyquist mode, and a draw
        # of band b needs 2b + 1 modes per axis
        if ineq[key] % 2:
            errors.append(f"inequalities.{key}: {ineq[key]} must be even")
        if ineq[key] < 2 * ineq["band"] + 1:
            errors.append(
                f"inequalities.{key}: {ineq[key]} must be at least "
                f"2 * band + 1 = {2 * ineq['band'] + 1}"
            )
    if ineq["amplitude_decay"] < 0:
        errors.append(
            f"inequalities.amplitude_decay: {ineq['amplitude_decay']} "
            f"must be >= 0"
        )
    for s in ineq["s_values"]:
        if s <= 0.5:
            errors.append(
                f"inequalities.s_values: s={s} must exceed 1/2 for the "
                f"vertical embeddings"
            )

    dep = values["dependence"]
    if dep["epsilon"] < 0:
        errors.append(f"dependence.epsilon: {dep['epsilon']} must be >= 0")

    if errors:
        raise ConfigError(errors)

    effective = {section: dict(body) for section, body in values.items()}
    for section, desc in (("init", init), ("forcing", forcing)):
        # echo only the keys the chosen kind consumes
        keep = {"kind"} | {f.name for f in fields(desc)}
        effective[section] = {k: v for k, v in effective[section].items()
                              if k in keep}
    effective = {
        s: {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in body.items()}
        for s, body in effective.items()
    }

    return RunConfig(
        solver=solver,
        seed=values["run"]["seed"],
        output_dir=values["run"]["output_dir"],
        operators=OperatorSweep(**ops),
        inequalities=InequalitySweep(**ineq),
        dependence=DependenceSettings(**dep),
        spectrum_checkpoint=values["spectrum"]["checkpoint"],
        effective=effective,
    )


def with_overrides(config: RunConfig, *, seed: int | None = None,
                   output_dir: str | None = None) -> RunConfig:
    """Command-line overrides; the effective echo and hash follow."""
    new_seed = config.seed if seed is None else seed
    new_dir = config.output_dir if output_dir is None else output_dir
    run = {"seed": new_seed, "output_dir": new_dir}
    return replace(config, seed=new_seed, output_dir=new_dir,
                   effective={**config.effective, "run": run})
