"""Flat key=value configuration with dotted sections.

The format is a plain text file of ``key = value`` lines (``#`` comments
allowed); the same keys double as CLI flags.  Unknown keys are rejected by
name; invariant violations raise :class:`ValidationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError

__all__ = ["RunConfig", "parse_config", "parse_kv_text", "print_config",
           "parse_eps_spec", "KEYS"]

COMMANDS = ("constants", "reduce", "ansatz", "solve", "sweep", "verify")

def _parse_floatlist(s):
    return [float(x) for x in str(s).split(",") if x != ""]


def parse_eps_spec(spec) -> list:
    """Parse an eps specification.

    Accepted forms: a single float, a comma list ``0.2,0.1,0.05``, or a
    geometric range ``start:stop:geometric[:count]`` (default step ratio
    1/sqrt(2), endpoints included).
    """
    s = str(spec)
    if ":" in s:
        parts = s.split(":")
        if len(parts) < 3 or parts[2] != "geometric":
            raise ConfigError(f"bad eps range {s!r}; expected "
                              "start:stop:geometric[:count]")
        start, stop = float(parts[0]), float(parts[1])
        if not (0.0 < stop < start and start / stop < np.inf):
            raise ConfigError(f"bad eps range {s!r}")
        if len(parts) >= 4:
            count = int(parts[3])
        else:
            count = int(round(np.log(start / stop) / np.log(np.sqrt(2.0)))) + 1
        if count < 2:
            raise ConfigError(f"bad eps range {s!r}")
        return list(np.geomspace(start, stop, count))
    return _parse_floatlist(s)


@dataclass
class RunConfig:
    """Validated run configuration with defaults filled."""

    cmd: str = ""
    n: int = 3
    k: int = 1
    eps: list = field(default_factory=lambda: [0.05])
    domain_center: list = field(default_factory=list)   # [] = origin
    domain_radius: float = 1.0
    grid_per_decade: int = 40
    dbar: list = field(default_factory=list)            # [] = from reduce
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        if self.cmd not in COMMANDS:
            raise ValidationError(
                f"cmd must be one of {COMMANDS}, got {self.cmd!r}")
        if self.n < 3:
            raise ValidationError(
                f"dimension n = {self.n} violates the n >= 3 rule")
        if self.k < 1:
            raise ValidationError(f"tower depth k = {self.k} must be >= 1")
        if not self.eps:
            raise ValidationError("eps list must not be empty")
        for e in self.eps:
            if not (0.0 < e < 1.0):
                raise ValidationError(f"eps = {e} outside (0, 1)")
        if self.cmd == "solve" and len(self.eps) > 1:
            raise ValidationError(
                f"solve takes one eps, got {len(self.eps)}; "
                "use sweep for several")
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise ValidationError(
                f"domain.radius must be finite and positive, "
                f"got {self.domain_radius}")
        if self.domain_center and len(self.domain_center) != self.n:
            raise ValidationError(
                f"domain.center needs {self.n} components")
        if not all(np.isfinite(c) for c in self.domain_center):
            raise ValidationError(f"domain.center entries must be finite, "
                                  f"got {self.domain_center}")
        if self.grid_per_decade < 10:
            raise ValidationError("grid.nodes_per_decade must be >= 10")
        if self.dbar and len(self.dbar) != self.k:
            raise ValidationError(f"dbar needs {self.k} entries")
        if not all(np.isfinite(d) and d > 0 for d in self.dbar):
            raise ValidationError(
                f"dbar entries must be finite and positive, got {self.dbar}")
        return self


# key -> (attribute, parser)
KEYS = {
    "cmd": ("cmd", str),
    "n": ("n", int),
    "k": ("k", int),
    "eps": ("eps", parse_eps_spec),
    "domain.center": ("domain_center", _parse_floatlist),
    "domain.radius": ("domain_radius", float),
    "grid.nodes_per_decade": ("grid_per_decade", int),
    "dbar": ("dbar", _parse_floatlist),
    "output.dir": ("out_dir", str),
}


def parse_kv_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw dict, rejecting unknown keys."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        out[key] = value
    return out


def parse_config(text: str | None = None, *,
                 overrides: dict | None = None) -> RunConfig:
    """Build a validated :class:`RunConfig` from config text and/or flag
    overrides.

    ``text`` is the content of a ``key = value`` file.  ``overrides`` maps
    dotted keys to raw string values; they win over the text.  Defaults
    fill everything else.
    """
    raw = {}
    if text is not None:
        raw.update(parse_kv_text(text))
    for key, value in (overrides or {}).items():
        if key not in KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if value is not None:
            raw[key] = value
    cfg = RunConfig()
    for key, value in raw.items():
        attr, parser = KEYS[key]
        try:
            parsed = parser(value)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
        setattr(cfg, attr, parsed)
    return cfg.validate()


def _print_value(value):
    if isinstance(value, (list, tuple)):
        return ",".join(format(float(v), ".17g") for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def print_config(cfg: RunConfig) -> str:
    """Serialise a config as sorted ``key = value`` lines (round-trips)."""
    lines = [f"{key} = {_print_value(getattr(cfg, attr))}"
             for key, (attr, _) in KEYS.items()]
    return "\n".join(sorted(lines)) + "\n"
