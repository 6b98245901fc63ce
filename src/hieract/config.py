"""Run configuration: INI file with sections, overridable by CLI flags.

Each key is a field of ``TrainConfig`` or ``RunConfig`` that declares,
once, its default and the values it takes. One check serves an INI value,
a command-line flag and a direct construction such as ``TrainConfig(C=0)``,
raising ValueError that names the key and the file or flag that set it.

Every output artifact embeds ``config_hash``, a digest of the effective
configuration, so artifacts can be traced back to the settings that
produced them and byte-identical reruns can be verified.
"""
import configparser
import hashlib
import json
import operator
from dataclasses import asdict, dataclass, field, fields
from typing import get_args

from .descriptors import MODES
from .skeleton import SCHEMAS

SUPERVISION_LEVELS = ("full", "temporal", "video")
# A field's metadata declares the values its key takes: "choices", or any
# of these bounds, each with the test a value must pass and its words.
# "help" describes the key's command-line flag.
_BOUNDS = (("least", operator.ge, "at least"), ("above", operator.gt, "above"),
           ("most", operator.le, "at most"))


@dataclass
class TrainConfig:
    """Hyperparameters of the trainer, each declared once with the default
    every ``hieract`` command runs with and the values it takes;
    ``RunConfig`` extends this class with the pipeline's other keys.
    ``beam`` None is exact inference; a width is an opt-in approximation.
    """
    C: float = field(default=10.0, metadata={"above": 0})
    lambda_y: float = field(default=100.0, metadata={"least": 0})
    lambda_v: float = field(default=25.0, metadata={"least": 0})
    # None: 1e-3 x the initial loss scale
    eps_qp: float | None = field(default=None, metadata={"above": 0})
    max_cccp_iters: int = field(default=3, metadata={"least": 0})
    max_cutting_plane_iters: int = field(default=400, metadata={
        "least": 0,
        "help": "cap on the exact loss-augmented passes of each cutting-plane "
                "solve; steps taken from cached violators do not count"})
    beam: int | None = field(default=None, metadata={"least": 1})
    seed: int = field(default=0, metadata={"least": 0})
    use_gc: bool = True
    supervision: str = field(default="temporal",
                             metadata={"choices": SUPERVISION_LEVELS})

    def __post_init__(self):
        for key, value in vars(self).items():
            if fault := _fault(key, value):
                raise ValueError(f"config key {key!r}: {value!r} is {fault}")


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
    schema: str = field(default="kinect20", metadata={"choices": SCHEMAS})
    mode: str = field(default="geo+velocity", metadata={"choices": MODES})
    window: int = field(default=7, metadata={"least": 0})
    pca_dim: int = field(default=20, metadata={"least": 1})
    # dictionary
    num_poselets: int = field(default=100, metadata={"least": 1})
    # evaluation
    min_overlap: float = field(default=0.60, metadata={"above": 0, "most": 1})
    min_run: int = 3

    def hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


FIELDS = {spec.name: spec for spec in fields(RunConfig)}
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
             **dict.fromkeys(("0", "false", "no", "off"), False)}


def _fault(key: str, value) -> str | None:
    """Why ``value`` is not a value config key ``key`` takes, in words
    (``"not at least 1"``), or None when it is one."""
    if value is None and type(None) in get_args(FIELDS[key].type):
        return None                         # an optional key takes None
    rule = FIELDS[key].metadata
    if "choices" in rule and value not in rule["choices"]:
        return "not one of " + ", ".join(rule["choices"])
    for name, holds, words in _BOUNDS:
        if name in rule and not holds(value, rule[name]):   # NaN fails too
            return f"not {words} {rule[name]}"
    return None


def _coerce(key: str, raw: str, where: str):
    """Parse an INI value as the type its RunConfig field is annotated
    with; ``none`` or an empty value sets an optional field to None.

    Booleans take 1/true/yes/on or 0/false/no/off in any case. A value that
    does not parse or that its key does not take raises ValueError naming
    the key and ``where`` it is.
    """
    kind = FIELDS[key].type
    value = raw.strip()
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
    if fault := _fault(key, parsed):
        raise ValueError(f"config key {key!r} in {where}: {value!r} is "
                         f"{fault}")
    return parsed


def load_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from an INI file; absent keys keep their defaults.

    Sections are organizational only; keys must be RunConfig field names.
    Unknown keys raise, naming the offender. The CLI layers its flags over
    the result with ``dataclasses.replace``.
    """
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
                if key not in FIELDS:
                    raise ValueError(
                        f"unknown config key {key!r} in [{section}] of {path}")
                values[key] = _coerce(key, raw, f"[{section}] of {path}")
    return RunConfig(**values)
