"""Configuration parsing: defaults, typing, exhaustive error collection."""

import math

import pytest

from admles.config import (
    ConfigError,
    hash_effective,
    parse_config,
    with_overrides,
)
from admles.solver import RandomBandLimited, SingleMode, TaylorGreen, ZeroForcing


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
    assert "n1=7" in joined
    assert "theta=1.5 must lie in [0, 1]" in joined
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
                        "inequalities.resolution: 2 must be at least "
                        "2 * band + 1 = 11"]),
    ("line_length = 255", ["inequalities.line_length: 255 must be even"]),
    ("band = 8\nresolution = 16", ["inequalities.resolution: 16 must be "
                                   "at least 2 * band + 1 = 17"]),
    ("band = 3\nline_length = 6", ["inequalities.line_length: 6 must be "
                                   "at least 2 * band + 1 = 7"]),
    ("resolution = 9\nline_length = 7\ncount = 0",
     ["inequalities.count: 0 must be >= 1",
      "inequalities.resolution: 9 must be even",
      "inequalities.resolution: 9 must be at least 2 * band + 1 = 11",
      "inequalities.line_length: 7 must be even",
      "inequalities.line_length: 7 must be at least 2 * band + 1 = 11"]),
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


def test_hash_effective_is_canonical():
    rc = parse_config("")
    h1 = hash_effective(rc.effective)
    # key order must not matter
    shuffled = dict(reversed(list(rc.effective.items())))
    assert hash_effective(shuffled) == h1


def test_inline_comments_allowed():
    rc = parse_config("[solver]\nnu = 0.2  # heavier damping\n")
    assert rc.solver.nu == 0.2
