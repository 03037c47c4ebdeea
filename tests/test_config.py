"""Configuration parsing: defaults, typing, exhaustive error collection."""

import math
from dataclasses import fields

import pytest

from admles.config import (
    _SCHEMA,
    ConfigError,
    hash_effective,
    parse_config,
    with_overrides,
)
from admles.filters import FilterSpec, OperatorSweep
from admles.grid import Grid
from admles.inequalities import InequalitySweep
from admles.solver import (
    DESCRIPTOR_KINDS,
    DependenceSettings,
    RandomBandLimited,
    SingleMode,
    SolverConfig,
    TaylorGreen,
    ZeroForcing,
    check_in_band,
)


def test_empty_config_gives_taylor_green_baseline():
    rc = parse_config("")
    cfg = rc.solver
    assert cfg.grid.shape == (32, 32, 32)
    assert cfg.grid.L1 == pytest.approx(2 * math.pi)
    assert isinstance(cfg.init, TaylorGreen)
    assert isinstance(cfg.forcing, ZeroForcing)
    assert cfg.nu == 0.1
    assert rc.seed == 0


def test_round_trip_values():
    rc = parse_config(
        """
        [run]
        seed = 42
        output_dir = results
        [grid]
        n1 = 16
        n2 = 16
        n3 = 64
        [filter]
        alpha = 0.25
        theta = 0.75
        [solver]
        nu = 0.05
        deconv_order = 3
        dt = 0.002
        t_end = 0.01
        [init]
        kind = single-mode
        k = 0, 0, 2
        amplitude = 1.5
        [forcing]
        kind = random
        seed = 9
        band = 3
        energy = 0.5
        """
    )
    assert rc.solver.grid.shape == (16, 16, 64)
    assert rc.solver.filter.alpha == 0.25
    assert rc.solver.deconv_order == 3
    assert rc.solver.init == SingleMode(k=(0, 0, 2), amplitude=1.5)
    assert rc.solver.forcing == RandomBandLimited(seed=9, band=3, energy=0.5)
    assert rc.seed == 42
    assert rc.output_dir == "results"


def test_all_errors_collected():
    text = """
    [grid]
    n1 = 7
    [filter]
    theta = 1.5
    [solver]
    nu = -1
    [unknown_section]
    x = 1
    [run]
    bogus_key = 2
    """
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    errors = excinfo.value.errors
    assert len(errors) == 5
    joined = "\n".join(errors)
    assert "grid.n1: 7 must be even" in joined
    assert "filter.theta: 1.5 must lie in [0, 1]" in joined
    assert "nu: -1.0 must be positive" in joined
    assert "unknown section" in joined
    assert "unknown key run.bogus_key" in joined


def test_type_errors_reported():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[solver]\nnu = fast\ndt = 0.01\n")
    assert any("cannot parse 'fast'" in e for e in excinfo.value.errors)


def test_t_end_multiple_of_dt():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[solver]\ndt = 0.01\nt_end = 0.055\n")
    assert any("integer multiple" in e for e in excinfo.value.errors)


def test_single_mode_band_checked_at_parse_time():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[grid]\nn1=16\nn2=16\nn3=16\n[init]\nkind = single-mode\nk = 9,0,0\n")
    assert any("outside the retained band" in e for e in excinfo.value.errors)


def test_unknown_lemma_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[inequalities]\nlemmas = agmon, poincare\n")
    assert any("poincare" in e for e in excinfo.value.errors)


@pytest.mark.parametrize("body, expected", [
    ("resolution = 31", ["inequalities.resolution: 31 must be even"]),
    ("resolution = 2", ["inequalities.resolution: 2 must be >= 4",
                        "inequalities.band: 5 lies outside the retained band "
                        "(cutoff 0)"]),
    ("line_length = 255", ["inequalities.line_length: 255 must be even"]),
    ("band = 8\nresolution = 16", ["inequalities.band: 8 lies outside the "
                                   "retained band (cutoff 5)"]),
    ("band = 3\nline_length = 6", ["inequalities.line_length: 6 must be "
                                   "at least 2 * band + 1 = 7"]),
    ("resolution = 9\nline_length = 7\ncount = 0",
     ["inequalities.count: 0 must be >= 1",
      "inequalities.resolution: 9 must be even",
      "inequalities.line_length: 7 must be even",
      "inequalities.line_length: 7 must be at least 2 * band + 1 = 11",
      "inequalities.band: 5 lies outside the retained band (cutoff 2)"]),
])
def test_inequality_sizes_checked_at_parse_time(body, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[inequalities]\n" + body + "\n")
    assert excinfo.value.errors == expected


@pytest.mark.parametrize("section, key", [
    ("operators", "alpha_values"),
    ("operators", "theta_values"),
    ("operators", "order_values"),
    ("inequalities", "lemmas"),
    ("inequalities", "s_values"),
])
def test_empty_lists_rejected(section, key):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(f"[{section}]\n{key} =\n")
    assert excinfo.value.errors == [
        f"{section}.{key}: must list at least one value"
    ]


def test_hash_ignores_output_dir_but_not_seed():
    base = parse_config("")
    moved = with_overrides(base, output_dir="elsewhere")
    reseeded = with_overrides(base, seed=99)
    assert moved.config_hash() == base.config_hash()
    assert reseeded.config_hash() != base.config_hash()
    assert len(base.config_hash()) == 64


def test_hash_sensitive_to_physics():
    a = parse_config("")
    b = parse_config("[filter]\nalpha = 0.50001\n")
    assert a.config_hash() != b.config_hash()
    # identical content parses to an identical hash
    c = parse_config("[filter]\nalpha = 0.5\n")
    assert a.config_hash() == c.config_hash()


def test_effective_echo_drops_unused_descriptor_keys():
    rc = parse_config("[init]\nkind = taylor-green\n")
    assert set(rc.effective["init"]) == {"kind", "amplitude"}
    rc2 = parse_config("[init]\nkind = random\nband = 4\n")
    assert set(rc2.effective["init"]) == {"kind", "seed", "band", "energy"}


@pytest.mark.parametrize("text, expected", [
    ("[solver]\nt_end = nan\n", ["solver.t_end: nan must be finite"]),
    ("[solver]\nt_end = inf\n", ["solver.t_end: inf must be finite"]),
    ("[solver]\ndt = 1e-320\nt_end = 1\n",
     ["solver.t_end: 1.0 / dt=1e-320 is not a finite number of steps"]),
    ("[solver]\nnu = nan\n", ["solver.nu: nan must be finite"]),
    ("[grid]\nl3 = nan\n", ["grid.l3: nan must be finite"]),
    ("[filter]\nalpha = inf\n", ["filter.alpha: inf must be finite"]),
    ("[inequalities]\ns_values = 0.75, nan\n",
     ["inequalities.s_values: 0.75, nan must be finite"]),
    ("[dependence]\nepsilon = nan\n", ["dependence.epsilon: nan must be finite"]),
    ("[init]\nkind = random\nenergy = inf\n", ["init.energy: inf must be finite"]),
    ("[init]\namplitude = nan\n", ["init.amplitude: nan must be finite"]),
    ("[forcing]\nkind = single-mode\nk = 1,0,0\namplitude = -inf\n",
     ["forcing.amplitude: -inf must be finite"]),
], ids=["t_end-nan", "t_end-inf", "steps-overflow", "nu", "l3", "alpha",
        "s_values", "epsilon", "energy", "init-amplitude", "forcing-amplitude"])
def test_non_finite_numbers_rejected(text, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.errors == expected


@pytest.mark.parametrize("text, expected", [
    ("[init]\nkind = random\nband = 0\nenergy = -1\n",
     ["init.band: 0 must be >= 1",
      "init.energy: -1.0 must be positive and finite"]),
    ("[forcing]\nkind = random\nenergy = 0\n",
     ["forcing.energy: 0.0 must be positive and finite"]),
    ("[init]\nkind = single-mode\nk = 0,0,0\n",
     ["init.k: needs a nonzero wavevector"]),
    ("[init]\nkind = single-mode\nk = 1,2\n[forcing]\nkind = random\nband = 0\n",
     ["init.k: need exactly three integers, got (1, 2)",
      "forcing.band: 0 must be >= 1"]),
    ("[init]\nkind = none\n",
     ["init.kind: 'none' is not one of taylor-green, single-mode, random"]),
    ("[forcing]\nkind = bogus\n",
     ["forcing.kind: 'bogus' is not one of none, taylor-green, single-mode, "
      "random"]),
    ("[grid]\nn1=16\nn2=16\nn3=16\n[init]\nkind = random\nband = 6\n"
     "[forcing]\nkind = single-mode\nk = 0,7,0\n",
     ["init.band: 6 lies outside the retained band (cutoff 5)",
      "forcing.k: mode (0, 7, 0) lies outside the retained band "
      "(cutoffs (5, 5, 5))"]),
], ids=["band-and-energy", "energy", "k-zero", "k-two-ints", "init-none",
        "unknown-kind", "outside-band"])
def test_descriptor_errors(text, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.errors == expected


@pytest.mark.parametrize("cls", DESCRIPTOR_KINDS.values(),
                         ids=list(DESCRIPTOR_KINDS))
def test_descriptor_fields_are_schema_keys(cls):
    """A descriptor field outside the schema could never be set from a
    config, nor enter its echo and hash."""
    for section in ("init", "forcing"):
        assert {f.name for f in fields(cls)} <= set(_SCHEMA[section])


@pytest.mark.parametrize("body, expected", [
    ("kind = none",
     "9e5105d62ae54d83ae0d58f3b175dbd0b4389688a352f8c28d5fb9d7e3978874"),
    ("kind = taylor-green\namplitude = 1.5",
     "af8f448c5128e3903f89788ff7bc6e43d8bed0a31e01ff0dcaa45651235bd58d"),
    ("kind = single-mode\nk = 1, -2, 0\namplitude = 0.25",
     "47c55ad3e683d16a98eb57244542a8711948744172df11c4e2b65c0f3054efdb"),
    ("kind = random\nseed = 7\nband = 3\nenergy = 2.5",
     "ba86e8467d2ef0d03b03615ee4d7c30b695753bb344970c1be18f6a1039f05fb"),
], ids=list(DESCRIPTOR_KINDS))
def test_config_hash_pinned_per_kind(body, expected):
    """The hash stamped on every artifact stays put for each kind."""
    assert parse_config(f"[forcing]\n{body}\n").config_hash() == expected


def test_hash_effective_is_canonical():
    rc = parse_config("")
    h1 = hash_effective(rc.effective)
    # key order must not matter
    shuffled = dict(reversed(list(rc.effective.items())))
    assert hash_effective(shuffled) == h1


def test_inline_comments_allowed():
    rc = parse_config("[solver]\nnu = 0.2  # heavier damping\n")
    assert rc.solver.nu == 0.2


def _with_defaults(cls, section, **bad):
    """`cls` built from the section's schema defaults, overridden by `bad`."""
    return cls(**{**{k: d for k, (_, d) in _SCHEMA[section].items()}, **bad})


def _solver(**bad):
    return _with_defaults(SolverConfig, "solver", grid=Grid(32, 32, 32),
                          filter=FilterSpec(0.5, 1.0), init=TaylorGreen(),
                          forcing=ZeroForcing(), **bad)


@pytest.mark.parametrize("section, body, build", [
    ("grid", "n1 = 7", lambda: Grid(7, 32, 32)),
    ("grid", "n2 = 2", lambda: Grid(32, 2, 32)),
    ("grid", "l3 = -1", lambda: Grid(32, 32, 32, L3=-1.0)),
    ("filter", "alpha = 0", lambda: FilterSpec(0.0, 1.0)),
    ("filter", "theta = 1.5", lambda: FilterSpec(0.5, 1.5)),
    ("solver", "nu = 0", lambda: _solver(nu=0.0)),
    ("solver", "deconv_order = -1", lambda: _solver(deconv_order=-1)),
    ("solver", "dt = -0.01", lambda: _solver(dt=-0.01)),
    ("solver", "t_end = 0.001", lambda: _solver(t_end=0.001)),
    ("solver", "dt = 1e-320\nt_end = 1",
     lambda: _solver(dt=1e-320, t_end=1.0)),
    ("solver", "t_end = 0.0123", lambda: _solver(t_end=0.0123)),
    ("solver", "output_every = 0", lambda: _solver(output_every=0)),
    ("init", "kind = single-mode\nk = 0, 0, 0", lambda: SingleMode((0, 0, 0))),
    ("init", "kind = single-mode\nk = 1, 2", lambda: SingleMode((1, 2))),
    ("init", "kind = random\nband = 0", lambda: RandomBandLimited(0, 0)),
    ("forcing", "kind = random\nenergy = 0",
     lambda: RandomBandLimited(1, 4, 0.0)),
    ("forcing", "kind = random\nband = 11",
     lambda: check_in_band(RandomBandLimited(1, 11), Grid(32, 32, 32))),
    ("forcing", "kind = single-mode\nk = 0, 11, 0",
     lambda: check_in_band(SingleMode((0, 11, 0)), Grid(32, 32, 32))),
    ("operators", "k3_max = 0",
     lambda: _with_defaults(OperatorSweep, "operators", k3_max=0)),
    ("operators", "alpha_values = 0.5, -1",
     lambda: _with_defaults(OperatorSweep, "operators",
                            alpha_values=(0.5, -1.0))),
    ("operators", "theta_values = 1.5",
     lambda: _with_defaults(OperatorSweep, "operators", theta_values=(1.5,))),
    ("operators", "order_values = 2, -1",
     lambda: _with_defaults(OperatorSweep, "operators", order_values=(2, -1))),
    ("inequalities", "lemmas = agmon, poincare",
     lambda: _with_defaults(InequalitySweep, "inequalities",
                            lemmas=("agmon", "poincare"))),
    ("inequalities", "count = 0",
     lambda: _with_defaults(InequalitySweep, "inequalities", count=0)),
    ("inequalities", "band = 0",
     lambda: _with_defaults(InequalitySweep, "inequalities", band=0)),
    ("inequalities", "band = 11",
     lambda: _with_defaults(InequalitySweep, "inequalities", band=11)),
    ("inequalities", "amplitude_decay = -1",
     lambda: _with_defaults(InequalitySweep, "inequalities",
                            amplitude_decay=-1.0)),
    ("inequalities", "s_values = 0.75, 0.5",
     lambda: _with_defaults(InequalitySweep, "inequalities",
                            s_values=(0.75, 0.5))),
    ("inequalities", "resolution = 31",
     lambda: _with_defaults(InequalitySweep, "inequalities", resolution=31)),
    ("inequalities", "resolution = 2",
     lambda: _with_defaults(InequalitySweep, "inequalities", resolution=2)),
    ("inequalities", "line_length = 255",
     lambda: _with_defaults(InequalitySweep, "inequalities", line_length=255)),
    ("inequalities", "line_length = 8",
     lambda: _with_defaults(InequalitySweep, "inequalities", line_length=8)),
    ("dependence", "epsilon = -1", lambda: DependenceSettings(-1.0, 1)),
])
def test_parser_reports_each_rule_as_its_object_does(section, body, build):
    """No rule of a section is restated by the parser: its lines are the
    object's own, under the section's name."""
    with pytest.raises(ValueError) as direct:
        build()
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"[{section}]\n{body}\n")
    assert parsed.value.errors == [
        f"{section}.{line}" for line in str(direct.value).splitlines()]


def test_grid_lemmas_rejected_past_the_cutoff():
    """resolution 12 fits 2 * band + 1 = 11 modes but cuts off at 3, where
    the trilinear numerator of band-5 draws aliases."""
    with pytest.raises(ConfigError) as excinfo:
        parse_config("[inequalities]\nresolution = 12\n")
    assert excinfo.value.errors == [
        "inequalities.band: 5 lies outside the retained band (cutoff 3)"]
    agmon = parse_config("[inequalities]\nlemmas = agmon\nresolution = 12\n")
    assert agmon.inequalities.resolution == 12
