import dataclasses

import numpy as np
import pytest

from innosearch.config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    load_run_config,
    parse_config_file,
)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_validate():
    rc = RunConfig().validated()
    assert rc.p == 0.5
    assert rc.grid_size == 2048
    assert rc.horizon is None
    assert rc.formats() == {"csv", "json"}


def test_parse_file_full(tmp_path):
    path = write(
        tmp_path,
        """
        # instance
        p = 0.4   # trailing comment
        v=3
        cost_family = logarithmic

        grid_size = 1e3
        horizon = 25
        out = results
        """,
    )
    values = parse_config_file(path)
    assert values == {
        "p": 0.4,
        "v": 3.0,
        "cost_family": "logarithmic",
        "grid_size": 1000,
        "horizon": 25,
        "out": "results",
    }
    assert isinstance(values["grid_size"], int)


def test_parse_file_rejects_unknown_key(tmp_path):
    path = write(tmp_path, "p = 0.4\nspeed = 9\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'speed'"):
        parse_config_file(path)


def test_parse_file_rejects_duplicate_and_bare_lines(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key 'p'"):
        parse_config_file(write(tmp_path, "p = 0.4\np = 0.5\n"))
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_file(write(tmp_path, "just words\n"))


def test_parse_file_rejects_fractional_int(tmp_path):
    with pytest.raises(ConfigError, match="cannot parse grid_size"):
        parse_config_file(write(tmp_path, "grid_size = 2.5\n"))
    with pytest.raises(ConfigError, match="cannot parse p"):
        parse_config_file(write(tmp_path, "p = fast\n"))


def test_precedence_default_file_override(tmp_path):
    path = write(tmp_path, "p = 0.4\nv = 3\n")
    rc = load_run_config(path, {"v": 4.0, "seed": None})
    assert rc.p == 0.4  # from file
    assert rc.v == 4.0  # flag beats file
    assert rc.seed == 12345  # None override ignored, default survives
    with pytest.raises(ConfigError, match="unknown override"):
        load_run_config(path, {"warp": 1})


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("p", 1.5, "p"),
        ("cost_family", "cubic", "not a valid CostFamily"),
        ("runs", 0, "runs"),
        ("seed", 2**64, "seed"),
        ("horizon", 0, "horizon"),
        ("slots", 0, "slots"),
        ("budget", 0, "budget"),
        ("format", "csv,pdf", "unknown output format"),
        ("format", " , ", "at least one"),
    ],
)
def test_validated_rejects(field, value, fragment):
    rc = RunConfig(**{field: value})
    with pytest.raises(ConfigError, match=fragment):
        rc.validated()


def test_sweep_spec_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="sweep parameter"):
        SweepSpec("q", [0.5])
    with pytest.raises(ConfigError, match="at least one value"):
        SweepSpec("p", [])
    base = RunConfig().validated()
    with pytest.raises(ConfigError, match=r"sweep delta = 1.0: delta must lie in \(0, 1\)"):
        SweepSpec("delta", [0.5, 1.0]).apply(base, 1.0)
    with pytest.raises(ConfigError, match="sweep scale = 0.0: k must be finite and > 0"):
        SweepSpec("scale", [1.0, 0.0]).apply(base, 0.0)
    with pytest.raises(ConfigError, match="sweep c0 = -0.1: c0 must be finite and >= 0"):
        SweepSpec("c0", [-0.1]).apply(base, -0.1)


def test_sweep_apply_sets_one_field():
    base = RunConfig().validated()
    variant = SweepSpec("v", [3.0]).apply(base, 3.0)
    assert variant.v == 3.0
    assert variant.p == base.p
    assert base.v == 2.0  # base untouched


def test_sweep_scale_multiplies_value_units():
    base = RunConfig(c0=0.1, k=1.5).validated()
    variant = SweepSpec("scale", [10.0]).apply(base, 10.0)
    assert variant.v == pytest.approx(base.v * 10, rel=0, abs=0)
    assert variant.c0 == pytest.approx(1.0, abs=1e-15)
    assert variant.k == pytest.approx(15.0, abs=1e-14)
    assert variant.p == base.p
    assert variant.delta == base.delta


def test_count_sweep_values_are_linspace_bitwise():
    # the sweep builds its evenly spaced values without numpy; they are numpy.linspace's doubles
    rng = np.random.default_rng(20261019)
    for _ in range(5000):
        first, last = (float(x) * 10.0 ** int(e) for x, e in zip(rng.uniform(-1.0, 1.0, 2), rng.integers(-6, 7, 2)))
        n = int(rng.integers(1, 60))
        spec = SweepSpec.from_flags("v", None, repr(first), repr(last), str(n))
        assert [x.hex() for x in spec.values] == [float(x).hex() for x in np.linspace(first, last, n)]
