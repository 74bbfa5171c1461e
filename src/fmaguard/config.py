"""YAML run configurations with a strict, documented schema.

Each block is built from the dataclass it configures: its keys are the
field names, an omitted key takes the field default, and unknown keys
fail loudly.  Complex quantities are written either as ``[re, im]``
pairs or as ``{mag: , deg: }`` polar mappings; angles here are degrees.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

import yaml

from .attack import AttackSpec, BasicFMA, DistortionSpec, StealthyFMA
from .classifier import TrainConfig
from .harness import SweepSpec
from .mismatch import MIConfig
from .phasors import Phasor
from .pipeline import PipelineConfig
from .relay import RelaySettings
from .scenario import (
    LINE_K0,
    SHUNT_K0,
    ExternalFaultSpec,
    FaultSpec,
    LineModel,
    LineScenario,
    LoadScale,
    ShuntSwitch,
    SourceEquivalent,
    SourceStep,
    default_line,
    default_scenario,
    healthy_reference,
)
from .sequence_network import SequenceImpedance, UnsupportedFault


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


def load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    return data


@contextmanager
def _invalid(context: str):
    """Report a rejected value or construction as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError, UnsupportedFault) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _expect_mapping(value, allowed, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")
    return value


def _split(m: dict, *names) -> tuple:
    """``(entries of m named in names, the other entries)``."""
    return ({k: v for k, v in m.items() if k in names},
            {k: v for k, v in m.items() if k not in names})


@cache
def _fields(cls) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _value(tp, value, context: str, convert=None):
    """``value`` through ``convert``, or coerced to annotation ``tp``: float,
    int, str, bool, ``tuple[X, ...]``, a dataclass built from its own block,
    or any of these ``| None`` (the only annotations that accept a null)."""
    options = get_args(tp)
    if value is None:
        if type(None) in options:
            return None
        raise ConfigError(f"{context} must not be null")
    if convert is not None:
        return convert(value, context)
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context} must be a list")
        return tuple(_value(options[0], v, f"{context}[{i}]") for i, v in enumerate(value))
    tp = next((o for o in options if o is not type(None)), tp)
    if is_dataclass(tp):
        return _build(tp, value, context)
    if tp in (bool, str) and not isinstance(value, tp):
        raise ConfigError(f"{context} must be a {tp.__name__}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{context} must be a whole number")
    return tp(value)


def _build(cls, value, context: str, given=None, **convert):
    """Dataclass ``cls`` from a mapping keyed by its field names.

    ``given`` holds fields the caller derives; they are not keys.  An
    absent key takes the field default; a field without one is required
    (the constructor's TypeError).  ``convert[name](value, context)``
    replaces the annotation's coercion for that field.  Every failure is
    a ConfigError.
    """
    given = given or {}
    m = _expect_mapping(value, _fields(cls).keys() - set(given), context)
    kwargs = dict(given)
    for name, v in m.items():
        with _invalid(f"{context}.{name}"):
            kwargs[name] = _value(_fields(cls)[name], v, f"{context}.{name}", convert.get(name))
    with _invalid(context):
        return cls(**kwargs)


def _complex(value, context: str) -> complex:
    with _invalid(context):
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
        if isinstance(value, dict):
            m = _expect_mapping(value, {"mag", "deg"}, context)
            return Phasor.from_polar_deg(float(m.get("mag", 0.0)),
                                         float(m.get("deg", 0.0))).as_complex
    raise ConfigError(f"{context} must be [re, im] or {{mag, deg}}")


def _phasor(value, context: str) -> Phasor:
    return Phasor.from_complex(_complex(value, context))


# --- scenario block ----------------------------------------------------------

_EVENTS = {"shunt_switch": ShuntSwitch, "source_step": SourceStep, "load_scale": LoadScale}


def _event(block, context: str):
    etype = block.get("type") if isinstance(block, dict) else None
    if not isinstance(etype, str) or etype not in _EVENTS:
        raise ConfigError(f"{context} must be a mapping with type one of {', '.join(_EVENTS)}")
    return _build(_EVENTS[etype], _split(block, "type")[1], context,
                  z_shunt=lambda v, c: SequenceImpedance.symmetric(_complex(v, c)))


def _external_fault(block, context: str) -> ExternalFaultSpec:
    """A flat mapping: the fault's keys plus the adjacent line's terminal."""
    m = _expect_mapping(block, _fields(FaultSpec).keys() | {"terminal"}, context)
    terminal, rest = _split(m, "terminal")
    fault = _build(FaultSpec, rest, context)
    return _build(ExternalFaultSpec, terminal, context, given={"fault": fault})


def _line(block, context: str) -> LineModel:
    m = _expect_mapping(block, {"z_se", "z_sh", "k0_series", "k0_shunt", "length_km"}, context)
    base = default_line()
    z_se = _complex(m["z_se"], f"{context}.z_se") if "z_se" in m else base.z_se.positive
    z_sh = _complex(m["z_sh"], f"{context}.z_sh") if "z_sh" in m else base.z_sh.positive
    with _invalid(context):
        return LineModel(
            z_se=SequenceImpedance.from_positive(z_se, k0=float(m.get("k0_series", LINE_K0))),
            z_sh=SequenceImpedance.from_positive(z_sh, k0=float(m.get("k0_shunt", SHUNT_K0))),
            length_km=float(m.get("length_km", base.length_km)),
        )


def _source(block, context: str, fallback: SourceEquivalent) -> SourceEquivalent:
    m = _expect_mapping(block, {"emf", "z_th", "z_th_zero"}, context)
    emf = _phasor(m["emf"], f"{context}.emf") if "emf" in m else fallback.emf
    z_th = _complex(m["z_th"], f"{context}.z_th") if "z_th" in m else fallback.z_th.positive
    z_th0 = (_complex(m["z_th_zero"], f"{context}.z_th_zero")
             if "z_th_zero" in m else fallback.z_th.zero)
    with _invalid(context):
        return SourceEquivalent(emf=emf, z_th=SequenceImpedance(z_th0, z_th, z_th))


def parse_scenario(block) -> LineScenario:
    """``line`` and ``sources`` override the calibrated network piecewise."""
    context = "config.scenario"
    keys = _fields(LineScenario).keys() - {"source1", "source2"} | {"sources"}
    m = _expect_mapping(block, keys, context)
    overrides, rest = _split(m, "line", "sources")
    overrides = {"line": {}, "sources": [{}, {}], **overrides}
    base = default_scenario()
    sources = overrides["sources"]
    if not isinstance(sources, list) or len(sources) != 2:
        raise ConfigError(f"{context}.sources must be a list of two mappings")
    given = {"line": _line(overrides["line"], f"{context}.line"),
             "source1": _source(sources[0], f"{context}.sources[0]", base.source1),
             "source2": _source(sources[1], f"{context}.sources[1]", base.source2)}
    return _build(LineScenario, rest, context, given=given, external_fault=_external_fault,
                  events=lambda v, c: tuple(_event(e, f"{c}[{i}]") for i, e in enumerate(v)))


def parse_attack(block, scenario: LineScenario) -> AttackSpec | None:
    """``c_a: eavesdropped`` (or omitted) replays the healthy differential."""
    context = "config.attack"
    m = _expect_mapping(block, {"mode", "c_a", "x", "r_f", "t_start"}, context)
    mode = m.get("mode", "none")
    if mode in (None, "none"):
        return None
    if mode == "basic":
        if "c_a" in m and m["c_a"] != "eavesdropped":
            c_a = _phasor(m["c_a"], f"{context}.c_a")
        else:
            c_a = healthy_reference(scenario).i_d
        inner = BasicFMA(c_a=c_a)
    elif mode == "stealthy":
        inner = _build(StealthyFMA, _split(m, "x", "r_f")[0], context)
    else:
        raise ConfigError(f"{context}.mode must be one of none, basic, stealthy")
    return _build(AttackSpec, _split(m, "t_start")[0], context, given={"mode": inner})


def parse_mi(block, scenario: LineScenario) -> MIConfig:
    """``i_d_n`` defaults to the healthy differential of ``scenario``."""
    context = "config.mi"
    m = _expect_mapping(block, _fields(MIConfig), context)
    ref, rest = _split(m, "i_d_n")
    i_d_n = (_phasor(ref["i_d_n"], f"{context}.i_d_n") if ref
             else healthy_reference(scenario).i_d)
    return _build(MIConfig, rest, context, given={"i_d_n": i_d_n})


# --- per-command configs -------------------------------------------------------

@dataclass(frozen=True)
class ZccSettings:
    """Trained classifier (None: stage 1 only) and its decision threshold."""

    model: str | None = None
    threshold: float = PipelineConfig.zcc_threshold


@dataclass(frozen=True)
class SimulateConfig:
    scenario: LineScenario
    attack: AttackSpec | None
    mi: MIConfig
    distortion: DistortionSpec = DistortionSpec()
    relay: RelaySettings = RelaySettings()
    zcc: ZccSettings = ZccSettings()
    seed: int = 0


def parse_simulate_config(data: dict) -> SimulateConfig:
    """``attack`` and ``mi`` read the parsed scenario; an omitted block is empty."""
    m = _expect_mapping(data, _fields(SimulateConfig), "config")
    derived, rest = _split(m, "scenario", "attack", "mi")
    derived = {"scenario": {}, "attack": {}, "mi": {}, **derived}
    scenario = parse_scenario(derived["scenario"])
    given = {"scenario": scenario, "attack": parse_attack(derived["attack"], scenario),
             "mi": parse_mi(derived["mi"], scenario)}
    return _build(SimulateConfig, rest, "config", given=given)


@dataclass(frozen=True)
class DatasetConfig:
    sweep: SweepSpec = SweepSpec()
    f: float = MIConfig.f
    seed: int = 0


@dataclass(frozen=True)
class TrainRunConfig:
    dataset: str
    train: TrainConfig = TrainConfig()
    kfold: bool = False


@dataclass(frozen=True)
class EvalConfig:
    model: str
    sweep: SweepSpec = SweepSpec()
    f: float = MIConfig.f
    threshold: float = PipelineConfig.zcc_threshold
    seed: int = 0


@dataclass(frozen=True)
class RocConfig:
    sweep: SweepSpec = SweepSpec()
    f_list: tuple[float, ...] = (0.001, 0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10)
    thresholds: tuple[float, ...] = (PipelineConfig.zcc_threshold,)
    model: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.f_list or not self.thresholds:
            raise ValueError("f_list and thresholds must be non-empty")


# Flat per-command configs: every key is a field of the config class.
def parse_dataset_config(data) -> DatasetConfig: return _build(DatasetConfig, data, "config")
def parse_train_config(data) -> TrainRunConfig: return _build(TrainRunConfig, data, "config")
def parse_eval_config(data) -> EvalConfig: return _build(EvalConfig, data, "config")
def parse_roc_config(data) -> RocConfig: return _build(RocConfig, data, "config")


def with_seed(cfg, seed: int | None):
    """Root-seed override from the command line."""
    return cfg if seed is None else replace(cfg, seed=seed)
