"""Engine configuration and its precedence chain.

Precedence (highest wins): explicit flags > ``SPADE_*`` environment variables
> config file (``key = value`` lines) > built-in defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigurationError

ENV_PREFIX = "SPADE_"


@dataclass(frozen=True)
class Config:
    # Canvas resolution (pixels per side) used for query viewports.
    resolution: int = 2048
    # Grid-cell byte budget for the clustered grid index.
    byte_budget: int = 64 * 1024 * 1024
    # Memory allowed for a single one-pass Map buffer.
    canvas_budget_bytes: int = 64 * 1024 * 1024
    # Bytes per one-pass Map result slot.
    slot_size: int = 16
    # Cell cache capacity as a multiple of byte_budget.
    cache_factor: int = 4

    def validate(self) -> "Config":
        if not 16 <= self.resolution <= 32768:
            raise ConfigurationError(f"resolution {self.resolution} outside [16, 32768]")
        if self.byte_budget <= 0 or self.canvas_budget_bytes <= 0:
            raise ConfigurationError("byte budgets must be positive")
        if self.cache_factor < 1:
            raise ConfigurationError("cache_factor must be at least 1")
        return self


def _coerce(name: str, raw: str) -> int:
    """A setting's text as its value: every field is an integer."""
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{name}: not a number: {raw!r}") from None


def load_config(config_file: str | Path | None = None,
                env: dict | None = None,
                **overrides) -> Config:
    """Build a Config from defaults, file, environment, and explicit overrides."""
    values: dict = {}
    names = {f.name for f in fields(Config)}
    if config_file is not None:
        for line in Path(config_file).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in names:
                values[key] = _coerce(key, raw.strip())
    env = os.environ if env is None else env
    for name in names:
        raw = env.get(ENV_PREFIX + name.upper())
        if raw is not None:
            values[name] = _coerce(name, raw)
    for name, val in overrides.items():
        if val is not None:
            values[name] = val
    return replace(Config(), **values).validate()


DEFAULT = Config()
