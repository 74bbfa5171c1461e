"""Config parsing: every block is its dataclass, with the same keys, the
same defaults and strict errors."""

import copy

import pytest

from fmaguard.attack import CTSaturationSpec, DistortionSpec, StealthyFMA
from fmaguard.classifier import TrainConfig
from fmaguard.cli import main
from fmaguard.config import (
    ConfigError,
    ZccSettings,
    parse_dataset_config,
    parse_eval_config,
    parse_roc_config,
    parse_simulate_config,
    parse_train_config,
)
from fmaguard.harness import SweepSpec
from fmaguard.mismatch import mi_config_for
from fmaguard.relay import RelaySettings
from fmaguard.scenario import (
    ExternalFaultSpec,
    FaultSpec,
    LoadScale,
    ShuntSwitch,
    SourceStep,
    default_scenario,
)
from fmaguard.sequence_network import SequenceImpedance

FAULT = {"kind": "AG", "x": 0.5, "r_f": 1.0, "t_inception": 0.1, "t_clear": None}

# Every settable key of every block, once.
FULL_SIMULATE = {
    "scenario": {
        "duration_s": 0.4, "sample_rate_hz": 1000, "system_freq_hz": 60,
        "fault": FAULT,
        "events": [
            {"type": "shunt_switch", "t": 0.3, "terminal": 1, "z_shunt": [0.0, -20000.0]},
            {"type": "source_step", "t": 0.3, "terminal": 1, "factor": 0.99},
            {"type": "load_scale", "t": 0.3, "factor": 1.02},
        ],
        "line": {"z_se": [1.85, 25.4], "z_sh": [110.7, -3073.0], "k0_series": 3.0,
                 "k0_shunt": 1.6, "length_km": 100.0},
        "sources": [{"emf": {"mag": 107.5, "deg": -25.0}, "z_th": [2.0, 240.0],
                     "z_th_zero": [4.0, 480.0]}, {}],
    },
    "attack": {"mode": "basic", "c_a": [0.0, 0.01], "x": 0.5, "r_f": 1.0, "t_start": 0.0},
    "distortion": {"snr_db": 35, "ct_saturation": {"mag_scale": 0.85,
                                                   "angle_advance_rad": 0.15, "knee_ka": 0.4}},
    "relay": {"i_d0": 0.05, "i_b": 0.585, "k1": 0.2, "k2": 0.4},
    "mi": {"f": 0.05, "t1": 9, "t2": 99, "i_d_n": [0.0, 0.046]},
    "zcc": {"model": "model.bin", "threshold": 0.5},
    "seed": 1,
}
FULL_SWEEP = {
    "kinds": ["AG", "BC"], "locations": [0.1, 0.9], "resistances": [0.001, 300],
    "snr_db": 35, "positives": 4, "negatives": 4, "negative_external_fraction": 0.85,
    "saturate_externals": True, "external_terminals": [1, 2], "both_directions": False,
}
FULL_TRAIN = {
    "dataset": "ds.csv", "kfold": False,
    "train": {"learning_rate": 1e-3, "epochs": 5, "batch_size": 8, "seed": 1, "fp_cost": 10.0,
              "fn_cost": 1.0, "l2_lambda": 1e-6, "hidden": [8, 4], "val_fraction": 0.15,
              "k_folds": 3},
}
FULL = {
    "simulate": (parse_simulate_config, FULL_SIMULATE),
    "dataset": (parse_dataset_config, {"sweep": FULL_SWEEP, "f": 0.05, "seed": 1}),
    "train": (parse_train_config, FULL_TRAIN),
    "eval": (parse_eval_config, {"model": "m.bin", "sweep": FULL_SWEEP, "f": 0.05,
                                 "threshold": 0.5, "seed": 1}),
    "roc": (parse_roc_config, {"model": "m.bin", "sweep": FULL_SWEEP, "f_list": [0.01, 0.05],
                               "thresholds": [0.5], "seed": 1}),
}


def with_change(command, path, value):
    """The full config of ``command`` with ``value`` set at key ``path``."""
    parser, data = FULL[command]
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return parser, data


class TestDefaults:
    def test_full_configs_parse(self):
        for parser, data in FULL.values():
            parser(copy.deepcopy(data))

    def test_empty_blocks_are_library_defaults(self):
        cfg = parse_simulate_config({})
        assert cfg.relay == RelaySettings()
        assert cfg.distortion == DistortionSpec()
        assert cfg.mi == mi_config_for(default_scenario())
        assert cfg.scenario == default_scenario()
        assert cfg.scenario.duration_s == 0.5
        assert cfg.attack is None and cfg.zcc == ZccSettings() and cfg.seed == 0
        assert parse_dataset_config({}).sweep == SweepSpec()
        assert parse_train_config({"dataset": "d.csv"}).train == TrainConfig()
        assert parse_train_config({"dataset": "d.csv"}).kfold is False

    def test_empty_ct_saturation_is_library_default(self):
        ct = parse_simulate_config({"distortion": {"ct_saturation": {}}}).distortion.ct_saturation
        assert ct == CTSaturationSpec()
        assert ct.knee_ka == 0.4

    def test_event_and_external_defaults(self):
        cfg = parse_simulate_config({"scenario": {"events": [
            {"type": "source_step"}, {"type": "load_scale"},
            {"type": "shunt_switch", "z_shunt": [0.0, -600.0]}]}})
        assert cfg.scenario.events == (
            SourceStep(), LoadScale(), ShuntSwitch(z_shunt=SequenceImpedance.symmetric(-600j)))
        assert (SourceStep().t, SourceStep().terminal, SourceStep().factor) == (0.0, 2, 1.0)
        ext = {k: v for k, v in FAULT.items() if k != "t_clear"}
        cfg = parse_simulate_config({"scenario": {"external_fault": ext}})
        assert cfg.scenario.external_fault == ExternalFaultSpec(fault=FaultSpec(**ext))
        assert cfg.scenario.external_fault.terminal == 2

    def test_eval_and_roc_defaults(self):
        cfg = parse_eval_config({"model": "m.bin"})
        assert (cfg.sweep, cfg.f, cfg.threshold, cfg.seed) == (SweepSpec(), 0.05, 0.5, 0)
        roc = parse_roc_config({})
        assert roc.model is None and roc.thresholds == (0.5,) and 0.05 in roc.f_list

    def test_values_are_coerced(self):
        cfg = parse_dataset_config({"sweep": {"kinds": ["AG"], "resistances": [1],
                                              "positives": "3", "negatives": 4.0}, "seed": 2})
        assert cfg.sweep.kinds == ("AG",) and cfg.sweep.resistances == (1.0,)
        assert isinstance(cfg.sweep.resistances[0], float) and cfg.sweep.positives == 3
        assert cfg.sweep.negatives == 4 and isinstance(cfg.sweep.negatives, int)
        attack = parse_simulate_config({"scenario": {"fault": FAULT},
                                        "attack": {"mode": "stealthy", "x": 0.5, "r_f": 1}}).attack
        assert attack.mode == StealthyFMA(x=0.5, r_f=1.0)


UNKNOWN_KEY_PATHS = [
    ("simulate", ("bogus",)),
    ("simulate", ("scenario", "bogus")),
    ("simulate", ("scenario", "fault", "bogus")),
    ("simulate", ("scenario", "events", 0, "bogus")),
    ("simulate", ("scenario", "events", 1, "bogus")),
    ("simulate", ("scenario", "events", 2, "bogus")),
    ("simulate", ("scenario", "line", "bogus")),
    ("simulate", ("scenario", "sources", 1, "bogus")),
    ("simulate", ("scenario", "sources", 0, "emf", "bogus")),
    ("simulate", ("attack", "bogus")),
    ("simulate", ("distortion", "bogus")),
    ("simulate", ("distortion", "ct_saturation", "bogus")),
    ("simulate", ("relay", "bogus")),
    ("simulate", ("mi", "bogus")),
    ("simulate", ("zcc", "bogus")),
    ("dataset", ("bogus",)),
    ("dataset", ("sweep", "bogus")),
    ("dataset", ("sweep", "attack_modes")),
    ("train", ("bogus",)),
    ("train", ("train", "bogus")),
    ("eval", ("bogus",)),
    ("eval", ("sweep", "bogus")),
    ("roc", ("bogus",)),
    ("roc", ("sweep", "bogus")),
]


class TestStrictKeys:
    @pytest.mark.parametrize("command,path", UNKNOWN_KEY_PATHS)
    def test_unknown_key_rejected(self, command, path):
        parser, data = with_change(command, path, 1)
        with pytest.raises(ConfigError, match="unknown keys"):
            parser(data)

    def test_unknown_key_in_external_fault(self):
        external = {**FAULT, "terminal": 1, "bogus": 1}
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_simulate_config({"scenario": {"external_fault": external}})

    @pytest.mark.parametrize("index,key", [(0, "factor"), (1, "z_shunt"), (2, "terminal")])
    def test_each_event_type_takes_only_its_own_keys(self, index, key):
        parser, data = with_change("simulate", ("scenario", "events", index, key), 7)
        with pytest.raises(ConfigError, match="unknown keys"):
            parser(data)

    @pytest.mark.parametrize("command,path", [
        ("simulate", ("scenario", "fault", "kind")),
        ("train", ("dataset",)),
        ("eval", ("model",)),
        ("simulate", ("attack", "x")),
    ])
    def test_missing_required_key(self, command, path):
        parser, data = FULL[command]
        data = copy.deepcopy(data)
        if path == ("attack", "x"):
            data["attack"]["mode"] = "stealthy"
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        with pytest.raises(ConfigError, match="missing"):
            parser(data)


class TestValues:
    @pytest.mark.parametrize("command,path,value", [
        ("simulate", ("relay", "k1"), [1]),
        ("simulate", ("relay", "k1"), 0.9),
        ("simulate", ("mi", "t1"), None),
        ("simulate", ("mi", "t2"), 10),
        ("simulate", ("mi", "t1"), 9.7),
        ("dataset", ("sweep", "external_terminals"), [1.5]),
        ("simulate", ("scenario", "duration_s"), "long"),
        ("simulate", ("scenario", "fault", "kind"), "XY"),
        ("simulate", ("scenario", "fault", "kind"), 123),
        ("simulate", ("zcc", "model"), 7),
        ("train", ("dataset",), 5),
        ("dataset", ("sweep", "kinds"), [1]),
        ("simulate", ("scenario", "events"), None),
        ("simulate", ("scenario", "events", 0, "z_shunt"), [1.0]),
        ("simulate", ("scenario", "events", 0, "type"), "bank"),
        ("simulate", ("scenario", "sources"), [{}]),
        ("simulate", ("scenario", "line", "z_se"), ["a", 1]),
        ("simulate", ("attack", "mode"), "replay"),
        ("simulate", ("distortion", "snr_db"), -3),
        ("simulate", ("relay",), None),
        ("dataset", ("sweep", "kinds"), "AG"),
        ("dataset", ("sweep", "positives"), "many"),
        ("dataset", ("sweep", "saturate_externals"), "yes"),
        ("train", ("kfold",), 1),
        ("train", ("train", "hidden"), 8),
        ("roc", ("f_list",), []),
    ])
    def test_bad_value_is_a_config_error(self, command, path, value):
        parser, data = with_change(command, path, value)
        with pytest.raises(ConfigError):
            parser(data)

    @pytest.mark.parametrize("command,path", [
        ("simulate", ("scenario", "fault", "t_clear")),
        ("simulate", ("scenario", "fault")),
        ("simulate", ("scenario", "external_fault")),
        ("simulate", ("distortion", "snr_db")),
        ("simulate", ("distortion", "ct_saturation")),
        ("simulate", ("zcc", "model")),
        ("dataset", ("sweep", "snr_db")),
        ("dataset", ("sweep", "positives")),
        ("roc", ("model",)),
    ])
    def test_null_accepted_where_the_field_may_be_none(self, command, path):
        parser, data = with_change(command, path, None)
        node = parser(data)
        for key in path:
            node = getattr(node, key)
        assert node is None

    def test_both_faults_rejected(self):
        with pytest.raises(ConfigError):
            parse_simulate_config({"scenario": {"fault": FAULT,
                                                "external_fault": {**FAULT, "terminal": 1}}})


class TestExitCodes:
    @pytest.mark.parametrize("text", [
        "relay: {k1: [1]}\n",
        "mi: {t1: null}\n",
        "scenario:\n  events:\n    - {type: shunt_switch, z_shunt: [0, -600], factor: 7}\n",
        "scenario: {fault: {kind: XY, x: 0.5, r_f: 1, t_inception: 0.1}}\n",
        "attack: {mode: stealthy, r_f: 1}\n",
    ])
    def test_config_errors_exit_2(self, tmp_path, text, capsys):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,text", [
        ("simulate", "scenario: {fault: {kind: 123, x: 0.5, r_f: 1, t_inception: 0.1}}\n"),
        ("train", "dataset: 5\n"),
        ("eval", "model: 7\n"),
    ])
    def test_non_string_value_exits_2(self, tmp_path, command, text, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "must be a str" in capsys.readouterr().err
