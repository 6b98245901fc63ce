"""Run configuration: INI file with sections, overridable by CLI flags.

Every output artifact embeds ``config_hash``, a digest of the effective
configuration, so artifacts can be traced back to the settings that
produced them and byte-identical reruns can be verified.
"""
from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_type_hints

from .descriptors import MODES
from .learning import SUPERVISION_LEVELS, TrainConfig


@dataclass
class RunConfig(TrainConfig):
    """Everything the pipeline commands need: the trainer's fields and
    defaults, inherited from TrainConfig, plus the keys the trainer does
    not read.

    ``num_poselets`` is the dictionary size K (the reference setups use 100
    to 200 depending on the dataset); descriptor mode and PCA width control
    the feature stage.
    """
    # features
    schema: str = "kinect20"
    mode: str = "geo+velocity"
    window: int = 7
    pca_dim: int = 20
    # dictionary
    num_poselets: int = 100
    # evaluation
    min_overlap: float = 0.60
    min_run: int = 3

    def hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}
# keys whose value is one of a fixed set, as their command-line flags take
_CHOICES = {"mode": MODES, "supervision": SUPERVISION_LEVELS}
# the least value of sizes a smaller one would make meaningless: no
# poselets, no PCA components, a negative velocity window
_MINIMA = {"num_poselets": 1, "pca_dim": 1, "window": 0}


def _coerce(key: str, raw: str, where: str):
    """Parse an INI value as the type its RunConfig field is annotated
    with; ``none`` or an empty value sets an optional field to None.

    Booleans take 1/true/yes/on or 0/false/no/off in any case; a key of
    ``_CHOICES`` takes one of its values, like its flag, and a key of
    ``_MINIMA`` no value below its least. A value that does not parse or is
    out of range raises ValueError naming the key and ``where`` it is.
    """
    kind = get_type_hints(RunConfig)[key]
    value = raw.strip()
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"config key {key!r} in {where}: {value!r} is not "
                         f"one of {', '.join(_CHOICES[key])}")
    options = get_args(kind)
    if type(None) in options:
        if value.lower() in ("none", ""):
            return None
        kind, = (t for t in options if t is not type(None))
    try:
        parsed = _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        expected = ("a boolean (1/true/yes/on or 0/false/no/off)"
                    if kind is bool else f"a value of type {kind.__name__}")
        raise ValueError(f"config key {key!r} in {where}: {value!r} is not "
                         f"{expected}") from None
    if key in _MINIMA and parsed < _MINIMA[key]:
        raise ValueError(f"config key {key!r} in {where}: {value!r} is "
                         f"less than {_MINIMA[key]}")
    return parsed


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from an INI file; absent keys keep their defaults.

    Sections are organizational only; keys must be RunConfig field names.
    Unknown keys raise, naming the offender. The CLI layers its flags over
    the result with ``dataclasses.replace``.
    """
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str      # keys are case-sensitive field names
        try:
            read = parser.read(path)
            items = [(section, parser.items(section))
                     for section in parser.sections()]
        except configparser.Error as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        if not read:
            raise FileNotFoundError(f"config file not found: {path}")
        for section, pairs in items:
            for key, raw in pairs:
                if key not in known:
                    raise ValueError(
                        f"unknown config key {key!r} in [{section}] of {path}")
                values[key] = _coerce(key, raw, f"[{section}] of {path}")
    return RunConfig(**values)
