"""Run configuration: defaults, flat key = value config files, CLI overrides.

Every run setting is one RunConfig field, settable as a config-file key and
as the CLI flag of the same name (underscores become dashes); the field's
metadata holds the flag's help text. Config files are flat text: one
`key = value` per line, # starts a comment, blank lines are fine. Unknown or
duplicate keys are hard errors so typos cannot silently fall back to
defaults. Precedence is CLI flag over file over default.

File values and flag values go through one parser, _coerce: integers are
exact (any size), a float spelling such as 1e6 is accepted for an integer
only when it is finite and integral, and strings pass through verbatim. The
sweep's --start, --stop and --count flags use the same number rules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from .model import DEFAULT_BUDGET, MAX_RUNS, CostModel, ModelParams


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparseable or out-of-range value."""


def _setting(default, doc: str):
    """A RunConfig field whose CLI flag has the help text doc."""
    return dataclasses.field(default=default, metadata={"help": doc})


@dataclass
class RunConfig:
    # instance
    p: float = _setting(0.5, "prior probability a feasible project exists")
    v: float = _setting(2.0, "prize for completing the feasible project")
    delta: float = _setting(0.9, "discount factor per period")
    cost_family: str = _setting("reciprocal", "reciprocal or logarithmic")
    c0: float = _setting(0.0, "marginal cost intercept")
    k: float = _setting(1.0, "marginal cost slope parameter")
    # read by nothing: parsed as an integer only because the benchmark's commands pass it
    grid_size: int = _setting(2048, "affects no command: no command runs a grid")
    # simulation
    runs: int = _setting(100_000, "Monte Carlo run count")
    seed: int = _setting(12345, "64-bit simulation seed")
    # None picks the command's default
    horizon: Optional[int] = _setting(None, "periods: path length (solve, sweep), cap (simulate), T (oracle)")
    # discrete benchmark
    slots: int = _setting(8, "slot count for the discrete benchmark")
    budget: int = _setting(DEFAULT_BUDGET, "assignment enumeration budget")
    # output
    out: str = _setting("out", "output directory (default: out)")
    format: str = _setting("csv,json", "comma list of csv,json,svg (default csv,json); svg adds charts")

    def model_params(self) -> ModelParams:
        try:
            cost = CostModel(self.cost_family, self.c0, self.k)
            return ModelParams(self.p, self.v, self.delta, cost)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def validated(self) -> "RunConfig":
        self.model_params()
        if not (1 <= self.runs <= MAX_RUNS):
            raise ConfigError(f"runs must be in [1, 2**63 - 1 = {MAX_RUNS}], got {self.runs}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.horizon is not None and self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.slots < 1:
            raise ConfigError(f"slots must be >= 1, got {self.slots}")
        if self.budget < 1:
            raise ConfigError(f"budget must be >= 1, got {self.budget}")
        tokens = self.formats()
        unknown = tokens - {"csv", "json", "svg"}
        if unknown:
            raise ConfigError(f"unknown output format(s): {', '.join(sorted(unknown))}")
        if not tokens:
            raise ConfigError("format must name at least one of csv, json, svg")
        return self

    def formats(self) -> set:
        """Output formats named in the comma list `format`; validated() checks them."""
        return {t.strip() for t in self.format.split(",") if t.strip()}


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _number(typ: str, name: str, raw: str):
    """raw as a float, or as an exact integer when typ is "int"."""
    try:
        if typ == "float":
            return float(raw)
        try:
            return int(raw)
        except ValueError:
            x = float(raw)
            if not x.is_integer():  # also rejects inf and nan, so int(x) cannot overflow
                raise
            return int(x)
    except ValueError:
        raise ConfigError(f"cannot parse {name} = {raw!r}") from None


def _coerce(key: str, raw: str):
    """The typed value of field `key` spelled as raw, from a file or a flag."""
    typ = _FIELDS[key].type
    return raw if typ == "str" else _number(typ, key, raw)


def parse_config_file(path: str) -> Dict[str, object]:
    """Read a flat key = value file into typed values, rejecting unknown keys."""
    values: Dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _coerce(key, raw.strip())
    return values


def load_run_config(path: Optional[str], overrides: Dict[str, object]) -> RunConfig:
    """Defaults, then file values, then non-None overrides; validates the result.

    String overrides (CLI flag values) are parsed as config-file values are.
    """
    config = RunConfig()
    if path is not None:
        for key, value in parse_config_file(path).items():
            setattr(config, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown override {key!r}")
        setattr(config, key, _coerce(key, value) if isinstance(value, str) else value)
    return config.validated()


SWEEP_PARAMETERS = ("p", "v", "delta", "c0", "k", "scale")


@dataclass
class SweepSpec:
    """One-dimensional parameter sweep.

    `scale` multiplies v, c0, and k jointly. The optimal path is unchanged
    and W scales with it, which is the homogeneity the sweep exists to demonstrate.
    """

    parameter: str
    values: List[float]

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter must be one of {', '.join(SWEEP_PARAMETERS)}, got {self.parameter!r}"
            )
        if not self.values:
            raise ConfigError("sweep needs at least one value")

    @classmethod
    def from_flags(cls, parameter: str, values: Optional[str], start: Optional[str],
                   stop: Optional[str], count: Optional[str]) -> "SweepSpec":
        """The sweep named by a comma list, or by start, stop and count, spelled as flags.

        Numbers are parsed as config-file values are; range checks are left
        to apply.
        """
        if values is not None:
            if start is not None or stop is not None or count is not None:
                raise ConfigError("give either --values or --start/--stop/--count, not both")
            try:
                points = [float(tok) for tok in values.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(f"cannot parse sweep values {values!r}") from None
            return cls(parameter, points)
        if start is None or stop is None or count is None:
            raise ConfigError("sweep needs --values or all of --start, --stop, --count")
        first = _number("float", "start", start)
        last = _number("float", "stop", stop)
        n = _number("int", "count", count)
        if n < 1:
            raise ConfigError(f"--count must be >= 1, got {n}")
        if n == 1:
            return cls(parameter, [first])
        # numpy.linspace's values, to the bit unless the step underflows to 0; the list is
        # allocated at once, so that a huge count fails at once
        step = (last - first) / (n - 1)
        try:
            points = [last] * n
        except (MemoryError, OverflowError):  # OverflowError: more elements than a list can index
            raise ConfigError(f"--count {n}: that many sweep values do not fit in memory") from None
        for i in range(n - 1):
            points[i] = first + i * step
        return cls(parameter, points)

    def apply(self, base: RunConfig, value: float) -> RunConfig:
        """base with the swept parameter set to value, validated."""
        variant = dataclasses.replace(base)
        if self.parameter == "scale":
            variant.v = base.v * value
            variant.c0 = base.c0 * value
            variant.k = base.k * value
        else:
            setattr(variant, self.parameter, value)
        try:
            return variant.validated()
        except ConfigError as e:
            raise ConfigError(f"sweep {self.parameter} = {value}: {e}") from None
