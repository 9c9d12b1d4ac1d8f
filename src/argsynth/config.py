"""Run configuration: `key = value` text files over documented defaults.

Each file key is a field of `SearchConfig`, `TrainConfig` or `RunConfig`,
declared once with `tunable`: its default, its type (the annotation) and
the range it must lie in. The key is the field name, except for three:
`library` sets `library_mode`, `search` sets the search `mode`, and
`episodes_per_iteration` sets `n_episodes`.

Unknown keys, keys set twice, malformed values, and out-of-range settings
are rejected with the offending line number so batch runs fail loudly and
early. The Python API (`validate()`) and command-line overrides obey the
same ranges.
"""
from __future__ import annotations

from dataclasses import Field, dataclass, fields
from typing import Optional, get_type_hints

from .search import SearchConfig, out_of_range, tunable
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(TrainConfig):
    """Every tunable of the four model variants plus what a run adds: the
    iteration count, the greedy evaluation grid and the output paths.

    `library_mode` and `search.mode` select the variant: args/noargs
    crossed with exact/approx search.
    """

    iterations: int = tunable(100, ">= 1", lambda v: v >= 1)
    eval_lengths: tuple[int, ...] = tunable(
        (5, 10, 20, 40, 60), "lengths >= 2",
        lambda v: len(v) > 0 and all(x >= 2 for x in v))
    eval_trials: int = tunable(50, ">= 1", lambda v: v >= 1)
    checkpoint: str = tunable("checkpoint.ckpt")
    output_dir: str = tunable(".")

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


def _file_keys() -> dict[str, tuple[bool, Field, type]]:
    """File key -> (whether the field is on the search config, the field,
    its type), from the tunable fields."""
    table = {}
    for in_search, cls in ((False, RunConfig), (True, SearchConfig)):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.metadata.get("tunable"):
                table[f.metadata["key"] or f.name] = (in_search, f, hints[f.name])
    return table


def _parse_value(key: str, text: str, kind, lineno: int):
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is str:
            return text
        # remaining field type: tuple of ints
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc


def checked(cfg: RunConfig) -> RunConfig:
    """`cfg` once it passes `validate()`; a violation is a ConfigError."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines (# starts a comment) onto the defaults."""
    cfg = RunConfig()
    keys = _file_keys()
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        in_search, f, kind = keys[key]
        parsed = _parse_value(key, value.strip(), kind, lineno)
        why = out_of_range(f, parsed)
        if why is not None:
            raise ConfigError(f"line {lineno}: value for {key!r} {why}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        setattr(cfg.search if in_search else cfg, f.name, parsed)
    return checked(cfg)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return RunConfig()
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                          f"at offset {exc.start})") from exc
    return parse_config(text)
