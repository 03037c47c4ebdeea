"""Run configuration: a flat INI file with typed keys.

This module checks only the file: its syntax, unknown sections or keys
(so a typo cannot fall back to a default), unparsable values, empty
lists and non-finite floats.  Each rule about a value lives in the
object that consumes it; parse_config builds those objects and lists
every line of their errors under its section's name.

The effective configuration (defaults merged with overrides) is
serialized to canonical JSON and hashed.  The output directory is
excluded from the hash: it says where artifacts go, not what they are.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

from .filters import FilterSpec, OperatorSweep
from .grid import Grid
from .inequalities import LEMMAS, InequalitySweep
from .solver import (
    DESCRIPTOR_KINDS,
    DependenceSettings,
    SolverConfig,
    ZeroForcing,
    check_in_band,
)

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


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    errors: list[str] = []
    values = _read_values(text, errors)

    def build(section: str, make, *args, **kwargs):
        # the object's own checks, each line under its section
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            errors.extend(f"{section}.{line}" for line in str(exc).splitlines())
            return None

    g = values["grid"]
    grid = build("grid", Grid, g["n1"], g["n2"], g["n3"],
                 g["l1"], g["l2"], g["l3"])
    filt = build("filter", FilterSpec, **values["filter"])
    descriptors = {}
    for section in ("init", "forcing"):
        body = values[section]
        allowed = [kind for kind, cls in DESCRIPTOR_KINDS.items()
                   if section == "forcing" or cls is not ZeroForcing]
        if body["kind"] not in allowed:
            errors.append(f"{section}.kind: {body['kind']!r} is not one of "
                          f"{', '.join(allowed)}")
            continue
        cls = DESCRIPTOR_KINDS[body["kind"]]
        # the kind's fields, and only they, are built and echoed
        kept = {f.name: body[f.name] for f in fields(cls)}
        values[section] = {"kind": body["kind"], **kept}
        descriptors[section] = desc = build(section, cls, **kept)
        if grid is not None and desc is not None:
            build(section, check_in_band, desc, grid)
    solver = build("solver", SolverConfig, grid=grid, filter=filt,
                   init=descriptors.get("init"),
                   forcing=descriptors.get("forcing"), **values["solver"])
    operators = build("operators", OperatorSweep, **values["operators"])
    inequalities = build("inequalities", InequalitySweep,
                         **values["inequalities"])
    dependence = build("dependence", DependenceSettings, **values["dependence"])

    if errors:
        raise ConfigError(errors)

    effective = {s: {k: list(v) if isinstance(v, tuple) else v
                     for k, v in body.items()} for s, body in values.items()}

    return RunConfig(
        solver=solver,
        seed=values["run"]["seed"],
        output_dir=values["run"]["output_dir"],
        operators=operators,
        inequalities=inequalities,
        dependence=dependence,
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
