"""Every knob-backed CLI flag comes from the settings table.

Each CLI is checked against its settings class: every knob-tagged field,
nested ones included, has exactly one flag whose ``--help`` names its
``REPRO_*`` variable, and the flag builds the same settings as the
explicit constructor.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro import settings
from repro.experiments import __main__ as experiments_cli
from repro.experiments.runner import ExperimentSettings
from repro.faultinjection import __main__ as faultinjection_cli
from repro.faultinjection.campaign import CampaignConfig
from repro.serve import __main__ as serve_cli
from repro.serve.service import ServiceConfig
from repro.sim.faults import CHAOS_FAULT_MODEL, CONCRETE_FAULT_MODELS
from repro.workloads.registry import BENCHMARK_NAMES


class _Built(Exception):
    """Raised in place of running a campaign, sweep or service."""

    def __init__(self, built):
        super().__init__()
        self.built = built


def _stop(built):
    raise _Built(built)


#: (CLI, its argument prefix, its settings class, how to stop it once it
#: has built its settings, the explicit settings it builds with no flags)
CLIS = {
    "faultinjection": (
        faultinjection_cli, ["tiff2bw", "dup"], CampaignConfig,
        ("run_campaign", lambda workload, scheme, config, **kw: _stop(config)),
        {},
    ),
    "experiments": (
        experiments_cli, ["table1", "--quiet"], ExperimentSettings,
        ("reset_global_cache", _stop),
        {"workloads": tuple(BENCHMARK_NAMES), "progress": False},
    ),
    "serve": (
        serve_cli, ["run", "--root", "r"], ServiceConfig,
        ("Service", _stop),
        {"root": "r"},
    ),
}


def _knob_fields(cls, path=()):
    """``(path, flag, knob)`` of every knob-tagged field of ``cls``."""
    for f in dataclasses.fields(cls):
        knob, nested = f.metadata.get("knob"), f.metadata.get("nested")
        if knob is not None:
            flag = knob.flag or "--" + f.name.replace("_", "-")
            yield path + (f.name,), flag, knob
        elif nested is not None:
            yield from _knob_fields(nested, path + ((f.name, nested),))


def _explicit(cls, given, path, value):
    """``cls(**given)`` with the field at ``path`` set to ``value``."""
    head = path[0]
    if isinstance(head, tuple):
        name, nested = head
        return cls(**given, **{name: _explicit(nested, {}, path[1:], value)})
    return cls(**given, **{head: value})


@pytest.fixture
def no_knob_env(monkeypatch):
    for cli in CLIS.values():
        for _, _, knob in _knob_fields(cli[2]):
            monkeypatch.delenv(knob.name, raising=False)


def _build(name, argv, monkeypatch):
    module, prefix, _, (attr, stop), _ = CLIS[name]
    monkeypatch.setattr(module, attr, stop)
    # an --obs-log must not switch on the registry other tests share
    monkeypatch.setattr(module, "enable_global", lambda: None, raising=False)
    with pytest.raises(_Built) as built:
        module.main(prefix + argv)
    return settings.resolve(built.value.built)


def _help_entries(name, capsys):
    """``(flags, help text)`` of every option in the CLI's ``--help``."""
    module, prefix, *_ = CLIS[name]
    with pytest.raises(SystemExit) as exit_info:
        module.main(prefix[:1] + ["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    options = re.split(r"^(?:options|optional arguments):$", out, flags=re.M)
    entries = []
    for line in options[1].splitlines():
        head = re.match(r"^  (-\S.*?)(?: {2,}(.*))?$", line)
        if head:
            entries.append((re.findall(r"--[\w-]+", head.group(1)),
                            [head.group(2) or ""]))
        elif entries:
            entries[-1][1].append(line.strip())
    return [(flags, " ".join(" ".join(text).split()))
            for flags, text in entries]


@pytest.mark.parametrize("name", CLIS)
def test_every_knob_has_one_flag_naming_its_variable(name, capsys):
    entries = _help_entries(name, capsys)
    knobs = list(_knob_fields(CLIS[name][2]))
    for _, flag, knob in knobs:
        naming = [flags for flags, text in entries
                  if re.search(rf"\b{knob.name}\b", text)]
        assert len(naming) == 1 and flag in naming[0], (name, flag, naming)
    # and no flag names a variable its settings class does not read
    named = {
        variable for _, text in entries
        for variable in re.findall(r"REPRO_[A-Z0-9_]+", text)
    }
    assert named == {knob.name for _, _, knob in knobs}


def _flag_argv(flag, knob):
    """A non-default value for ``knob`` and the argv that sets it."""
    default = knob.default
    if isinstance(default, bool):
        return [("--no-" if default else "--") + flag[2:]], not default
    if isinstance(default, (int, float)):
        value = default + 3
    else:
        value = "burst" if knob is settings.FAULT_MODEL else "some/path"
    return [flag, str(value)], value


@pytest.mark.parametrize("name", CLIS)
def test_each_flag_builds_the_explicit_settings(name, monkeypatch,
                                                no_knob_env):
    _, _, cls, _, given = CLIS[name]
    for path, flag, knob in _knob_fields(cls):
        argv, value = _flag_argv(flag, knob)
        built = _build(name, argv, monkeypatch)
        assert built == settings.resolve(_explicit(cls, given, path, value)), \
            (name, argv)
        assert built != settings.resolve(cls(**given)), (name, argv)


def test_flags_beat_the_environment(monkeypatch, no_knob_env):
    monkeypatch.setenv("REPRO_TRIAGE", "1")
    monkeypatch.setenv("REPRO_OBS", "/env/log.jsonl")
    config = _build("faultinjection", ["--no-triage", "--obs-log", ""],
                    monkeypatch)
    assert config.triage is False and config.obs_log == ""
    monkeypatch.setenv("REPRO_TRIAGE", "0")
    monkeypatch.setenv("REPRO_RESILIENCE", "0")
    config = _build("faultinjection", [], monkeypatch)
    assert config.triage is False  # an absent flag takes the environment
    assert config.obs_log == "/env/log.jsonl"
    assert config.resilience.enabled is False
    config = _build("faultinjection", ["--resilience"], monkeypatch)
    assert config.resilience.enabled is True


@pytest.mark.parametrize("name", ["faultinjection", "experiments"])
def test_unknown_fault_model_exits_2_listing_the_models(name, capsys):
    module, prefix, *_ = CLIS[name]
    with pytest.raises(SystemExit) as exit_info:
        module.main(prefix + ["--fault-model", "bogus"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the first report or trial
    assert "bogus" in err
    for model in CONCRETE_FAULT_MODELS + (CHAOS_FAULT_MODEL,):
        assert model in err
