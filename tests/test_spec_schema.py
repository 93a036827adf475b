"""The one spec schema: field walks over the spec dataclasses, hostile
payloads, the facade writing only what its loader reads, and a property
over one-field mutations of a golden spec."""

import argparse
import json
import os
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.cli import build_parser, main
from repro.experiments.engine import (
    SPEC_ENGINE_OPTIONS,
    EngineOptions,
    ScenarioSpec,
    SweepEngine,
)
from repro.experiments.scenarios import Preset
from repro.experiments.specio import (
    SpecValidationError,
    check_fields,
    load_payload,
)

GOLDEN_FIG4 = os.path.join(
    os.path.dirname(__file__), "golden_specs", "fig4.json"
)

#: a wrong type for every spec field: an array holding an object
WRONG = [{}]


def fig4_payload():
    with open(GOLDEN_FIG4) as handle:
        return json.load(handle)


def errors_of(payload):
    with pytest.raises(SpecValidationError) as excinfo:
        api.validate_spec(payload)
    return excinfo.value.errors


class TestFieldWalk:
    @pytest.mark.parametrize(
        "sample", [Preset("walk"), ScenarioSpec()], ids=["preset", "cell"]
    )
    def test_fields_emitted_accepted_and_typed(self, sample):
        cls = type(sample)
        payload = sample.to_dict()
        for field in fields(cls):
            assert field.name in payload, field.name
            value = payload[field.name]
            assert check_fields(cls, {field.name: value}) == [], field.name
            assert check_fields(cls, {field.name: WRONG}), field.name

    def test_engine_options_accepted_at_default_and_typed(self):
        for field in fields(EngineOptions):
            assert check_fields(
                EngineOptions, {field.name: field.default}
            ) == [], field.name
            assert check_fields(EngineOptions, {field.name: WRONG})

    def test_spec_engine_options_emitted_by_spec(self):
        samples = {
            "jobs": 2,
            "executor": "process",
            "cell_timeout": 30.0,
            "retries": 1,
            "on_error": "continue",
        }
        assert set(SPEC_ENGINE_OPTIONS) == set(samples)
        builder = api.experiment("fig4").preset("tiny")
        for name, value in samples.items():
            getattr(builder, name)(value)
        assert builder.spec()["engine"] == samples

    def test_every_engine_option_has_a_flag(self):
        (commands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for command in ("experiment", "ablation", "sweep"):
            dests = {a.dest for a in commands.choices[command]._actions}
            for field in fields(EngineOptions):
                flipped = "no_" + field.name
                assert field.name in dests or flipped in dests, (
                    command, field.name
                )


class TestHostilePayloads:
    @pytest.mark.parametrize(
        "block, name, value",
        [
            ("preset", "tau_grid", 18),
            ("preset", "buildings", 9),
            ("preset", "attacks", True),
            ("cell", "framework", {}),
        ],
    )
    def test_wrong_containers_are_reported(self, block, name, value):
        payload = fig4_payload()
        target = payload["preset"] if block == "preset" else payload["cells"][0]
        target[name] = value
        spot = f"preset.{name}" if block == "preset" else f"cells[0].{name}"
        assert any(e.startswith(spot) for e in errors_of(payload))

    def test_all_wrong_containers_listed_at_once(self):
        payload = fig4_payload()
        payload["preset"].update(tau_grid=18, buildings=9, attacks=True)
        payload["cells"][0]["framework"] = {}
        assert len(errors_of(payload)) == 4

    @pytest.mark.parametrize(
        "block, name, value",
        [
            ("preset", "num_clients", 0),
            ("preset", "num_malicious", 9),
            ("preset", "num_rounds", 0),
            ("preset", "client_epochs", 0),
            ("preset", "malicious_epochs", 0),
            ("preset", "client_lr", 0),
            ("preset", "malicious_lr", -0.5),
            ("preset", "rp_fraction", 1.5),
            ("cell", "building", "nope"),
            ("cell", "num_clients", -1),
        ],
    )
    def test_unrunnable_values_rejected(self, block, name, value):
        payload = fig4_payload()
        target = payload["preset"] if block == "preset" else payload["cells"][1]
        target[name] = value
        assert any(name in error for error in errors_of(payload))

    def test_cell_shape_checked_after_defaults(self):
        payload = fig4_payload()
        payload["cells"][0]["num_clients"] = 1
        api.validate_spec(payload)  # the preset's one attacker fits
        payload["preset"]["num_malicious"] = 2
        (error,) = errors_of(payload)
        assert error.startswith("cells[0].num_malicious: 2 exceeds")
        payload["cells"][0]["attack"] = None  # clean cells field none
        api.validate_spec(payload)

    def test_default_building_needs_preset_buildings(self):
        payload = fig4_payload()
        payload["cells"][0]["building"] = None
        api.validate_spec(payload)
        payload["preset"]["buildings"] = []
        (error,) = errors_of(payload)
        assert error.startswith("cells[0].building")

    def test_non_finite_and_out_of_range_numbers_rejected(self):
        payload = fig4_payload()
        payload["preset"]["client_lr"] = float("nan")
        payload["cells"][0]["epsilon"] = 10**400
        assert len(errors_of(payload)) == 2

    def test_repeated_pair_form_kwarg_rejected(self):
        payload = fig4_payload()
        payload["cells"][0]["framework_kwargs"] = [["tau", 0.1], ["tau", {}]]
        assert any("named twice" in error for error in errors_of(payload))


class TestOneDeclaration:
    def test_bad_engine_setters_fail_on_the_spot(self):
        builder = api.experiment("fig4").preset("tiny")
        with pytest.raises(ValueError, match="jobs: must be >= 1"):
            builder.jobs(0)
        with pytest.raises(ValueError, match="retries: must be >= 0"):
            builder.retries(-1)

    def test_facade_never_saves_a_spec_it_rejects(self, tmp_path):
        path = tmp_path / "fig4.json"
        builder = (
            api.experiment("fig4").preset("tiny")
            .override(client_engine="gpu")
        )
        with pytest.raises(SpecValidationError, match="client_engine"):
            builder.save_spec(str(path))
        assert not path.exists()

    def test_facade_rejects_a_client_schedule_no_cell_can_run(self):
        builder = (
            api.experiment("fig4").preset("tiny")
            .override(client_epochs=0, malicious_lr=0.0)
        )
        with pytest.raises(SpecValidationError) as excinfo:
            builder.spec()
        assert excinfo.value.errors == [
            "preset.client_epochs: must be >= 1, got 0",
            "preset.malicious_lr: must be > 0, got 0.0",
        ]

    def test_saved_hints_replay(self, tmp_path):
        path = str(tmp_path / "fig4.json")
        api.experiment("fig4").preset("tiny").jobs(2).retries(1).save_spec(
            path
        )
        assert load_payload(path)["engine"] == {"jobs": 2, "retries": 1}

    def test_run_spec_option_precedence(self, monkeypatch):
        """explicit arguments > the spec's engine hints > defaults"""
        seen = {}

        class Built(Exception):
            pass

        def engine(**options):
            seen.update(options)
            raise Built

        monkeypatch.setattr(api, "SweepEngine", engine)
        payload = fig4_payload()
        payload["engine"] = {"jobs": 2, "retries": 1}
        with pytest.raises(Built):
            api.run_spec(payload, jobs=3, cache_dir=None)
        assert seen == {"jobs": 3, "retries": 1}

    def test_sweep_engine_keeps_its_keywords(self):
        engine = SweepEngine(jobs=2, executor="process", on_error="continue")
        assert engine.options == EngineOptions(
            jobs=2, executor="process", on_error="continue"
        )
        with pytest.raises(ValueError, match="resume needs cache_dir"):
            SweepEngine(resume=True)
        with pytest.raises(TypeError):
            SweepEngine(jbos=2)

    def test_cli_usage_errors_come_from_the_checker(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig4", "--jobs", "0", "--retries", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs: must be >= 1, got 0" in err
        assert "--retries: must be >= 0, got -1" in err


#: arbitrary JSON, plus values near the schema's names and bounds
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
VALUES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from(
        ["building1", "fgsm", "safeloc", "fedavg", "batched", "float32",
         "process", "continue", 0.5, 1.0, [], ["building2"], [[4, 9]],
         {"tau": 0.2}]
    ),
    JSON_VALUES,
)
TARGETS = (
    [("preset", f.name) for f in fields(Preset)]
    + [("cell", f.name) for f in fields(ScenarioSpec)]
    + [("engine", name) for name in SPEC_ENGINE_OPTIONS]
)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    target=st.sampled_from(TARGETS), index=st.integers(0, 5), value=VALUES
)
def test_one_field_mutation_is_rejected_or_runnable(target, index, value):
    """Replace one field of the fig4 golden payload: validation either
    raises SpecValidationError or returns a plan whose every cell has a
    buildable federation and building (and hints that make an engine)."""
    block, name = target
    payload = fig4_payload()
    if block == "preset":
        payload["preset"][name] = value
    elif block == "cell":
        payload["cells"][index][name] = value
    else:
        payload["engine"] = {name: value}
    try:
        plan = api.validate_spec(payload)
    except SpecValidationError:
        return
    preset = plan.preset
    for cell in plan.cells:
        malicious = cell.num_malicious
        if malicious is None:
            malicious = preset.num_malicious
        preset.federation_config(
            num_malicious=malicious if cell.attack else 0,
            num_clients=cell.num_clients,
        )
        preset.building(cell.building or preset.buildings[0])
    SweepEngine(**payload.get("engine", {}))
