"""Config parsing, defaults, overrides, and the canonical hash."""

from __future__ import annotations

import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llx.config import (
    _SECTIONS,
    config_hash,
    default_config_text,
    load_config,
)
from llx.errors import ConfigError
from llx.expansion import StudyConfig


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_without_file():
    cfg = load_config()
    assert cfg.scenario == "headline"
    assert cfg.epsilons == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.study.T == 0.5
    assert cfg.study.dt_knot == 2.5e-3
    assert cfg.study.profile_cells == 128
    assert cfg.epsilon == 0.1
    assert cfg.seed == 0
    assert cfg.out == "runs"
    # default scenario is the per-side constant jump
    assert cfg.data.name is None
    np.testing.assert_allclose(cfg.data.value_minus, [0.6, 0.8, 0.0])
    np.testing.assert_allclose(cfg.data.value_plus, [-0.6, 0.8, 0.0])


def test_default_text_round_trips(tmp_path):
    path = _write(tmp_path, default_config_text())
    cfg = load_config(path)
    ref = load_config()
    assert cfg.items == ref.items
    assert cfg.study == ref.study
    assert config_hash(cfg) == config_hash(ref)


def test_hash_ignores_number_spelling(tmp_path):
    # same value spelled differently hashes identically
    same = load_config(_write(tmp_path, "[study]\nT = 5e-1\n"))
    assert config_hash(same) == config_hash(load_config())
    # a genuinely different value does not
    other = load_config(None, ["study.T=0.25"])
    assert config_hash(other) != config_hash(load_config())


# [study] keys whose accepted values are a plain range, so any draw in
# the range builds; the int ranges start at StudyConfig's minima
_FLOAT_KEYS = ("box_y", "box_z", "picard_tol", "drift_tol")
_INT_RANGES = {"cells_per_eps": (4, 10**9), "param_cells": (8, 10**9),
               "profile_cells": (8, 10**9), "wall_cells": (8, 10**9),
               "picard_max_iter": (1, 10**9), "eclass_m": (1, 2)}

_float_settings = st.tuples(
    st.sampled_from(_FLOAT_KEYS),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
              allow_infinity=False))
_int_settings = st.sampled_from(sorted(_INT_RANGES)).flatmap(
    lambda key: st.tuples(st.just(key), st.integers(*_INT_RANGES[key])))


def _hashes(key, spellings):
    return {config_hash(load_config(None, [f"study.{key}={text}"]))
            for text in spellings}


@settings(max_examples=60, deadline=None)
@given(setting=_float_settings)
def test_hash_ignores_the_spelling_of_any_float(setting):
    key, value = setting
    spellings = [repr(value), "%.17g" % value, "%.17e" % value,
                 "+" + repr(value), f"  {value!r}  "]
    assert all(float(text) == value for text in spellings)
    assert len(_hashes(key, spellings)) == 1


@settings(max_examples=60, deadline=None)
@given(setting=_int_settings)
def test_hash_ignores_the_spelling_of_any_int(setting):
    key, value = setting
    spellings = [repr(value), "%.17g" % value, "+" + repr(value),
                 f"  {value!r}  ", "0" + repr(value)]
    assert all(int(text) == value for text in spellings)
    assert len(_hashes(key, spellings)) == 1


def test_hash_is_short_hex():
    digest = config_hash(load_config())
    assert len(digest) == 12
    assert set(digest) <= set("0123456789abcdef")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="config not found"):
        load_config(str(tmp_path / "nope.cfg"))


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, "[bogus]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, "[study]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_keys_are_case_sensitive(tmp_path):
    # T is a study key, t is not; the parser must not fold case
    path = _write(tmp_path, "[study]\nt = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_bad_scenario_kind(tmp_path):
    path = _write(tmp_path, "[scenario]\ndata = other\n")
    with pytest.raises(ConfigError, match="'constant' or 'named'"):
        load_config(path)


def test_unknown_named_field(tmp_path):
    path = _write(tmp_path, "[scenario]\ndata = named\nfield = nope\n")
    with pytest.raises(ConfigError, match="unknown named field"):
        load_config(path)


def test_vector_needs_three_components(tmp_path):
    path = _write(tmp_path, "[scenario]\nvalue_minus = 0.6 0.8\n")
    with pytest.raises(ConfigError, match="three numbers"):
        load_config(path)


def test_non_numeric_value(tmp_path):
    path = _write(tmp_path, "[study]\nT = soon\n")
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(path)


def test_non_integer_value(tmp_path):
    path = _write(tmp_path, "[run]\nseed = 1.5\n")
    with pytest.raises(ConfigError, match="must be an integer"):
        load_config(path)


def test_study_validation_propagates():
    # 0.5 / 3e-3 is not an integer count of knot steps
    with pytest.raises(ConfigError, match="integer multiple"):
        load_config(None, ["study.dt_knot=3e-3"])


@pytest.mark.parametrize("override, key", [
    ("study.epsilons=0.1 0.05 nan", "study.epsilons"),
    ("study.picard_tol=-1", "picard_tol"),
    ("study.cells_per_eps=0", "cells_per_eps"),
    ("study.profile_cells=3", "profile_cells"),
    ("study.wall_cells=0", "wall_cells"),
    ("study.param_cells=3", "param_cells"),
    ("study.picard_max_iter=0", "picard_max_iter"),
    ("study.box_y=-3", "box_y"),
    ("study.drift_tol=0", "drift_tol"),
    ("study.eclass_m=0", "study.eclass_m"),
    ("study.dt_full=nan", "study.dt_full"),
    ("study.dt_full=1e-9", "study.dt_full"),
    ("study.T=nan", "study.T"),
    ("run.epsilon=inf", "run.epsilon"),
    ("run.epsilon=0", "run.epsilon"),
    ("scenario.value_minus=nan 0 0", "scenario.value_minus"),
    ("scenario.value_plus=inf 0 0", "scenario.value_plus"),
    ("scenario.value_plus=0 0 0", "scenario.value_plus"),
    ("scenario.value_minus=0 0 0", "scenario.value_minus"),
    ("scenario.field=nope", "scenario.field"),
])
def test_bad_value_is_refused_naming_the_key(override, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(None, [override])


def test_every_study_knob_refused_at_zero_names_its_section():
    # each StudyConfig field is refused at 0, naming study.<key>
    for f in fields(StudyConfig):
        key = f"study.{f.name}"
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(None, [f"{key}=0"])


def test_sections_share_no_key():
    # a bare override key names exactly one section
    keys = [key for section in _SECTIONS.values() for key in section]
    assert len(keys) == len(set(keys))


def test_override_bare_key():
    cfg = load_config(None, ["picard_tol=1e-06"])
    assert cfg.study.picard_tol == 1e-6


def test_override_qualified_key():
    cfg = load_config(None, ["study.T=0.25"])
    assert cfg.study.T == 0.25


def test_override_beats_file(tmp_path):
    path = _write(tmp_path, "[study]\nT = 0.25\n")
    cfg = load_config(path, ["study.T=0.125"])
    assert cfg.study.T == 0.125


def test_override_changes_hash():
    assert (config_hash(load_config(None, ["run.seed=7"]))
            != config_hash(load_config()))


def test_override_rejects_unknown_bare_key():
    with pytest.raises(ConfigError, match="unknown override key"):
        load_config(None, ["bogus=1"])


def test_override_rejects_unknown_qualified_key():
    with pytest.raises(ConfigError, match="unknown override target"):
        load_config(None, ["study.bogus=1"])


def test_override_rejects_malformed_item():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["oops"])


def test_named_scenario(tmp_path):
    path = _write(tmp_path, "[scenario]\nname = smooth\ndata = named\n")
    cfg = load_config(path)
    assert cfg.scenario == "smooth"
    assert cfg.data.name == "swirl"
    # a named field is continuous: both data branches coincide
    x = np.linspace(-1.0, 1.0, 9)
    assert np.array_equal(cfg.data.branch(x, "minus"),
                          cfg.data.branch(x, "plus"))
