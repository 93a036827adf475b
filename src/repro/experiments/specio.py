"""Sweep-spec files: schema validation, loading, saving.

A sweep spec is a :class:`~repro.experiments.engine.SweepPlan` as JSON —
a diffable, storable, resumable description of an experiment that any
frontend (CLI ``repro sweep --spec``, :func:`repro.api.run_spec`, a
service) can hand to the engine.  The format is versioned
(:data:`~repro.experiments.engine.SPEC_SCHEMA_VERSION`) and validated
**before** construction, so a typo'd spec fails with every problem
listed and a did-you-mean hint, not a stack trace from deep inside the
engine:

    plan.json: cells[3].framework: unknown framework 'safelok' — did
    you mean 'safeloc'?

Field types, choices and bounds are read off the dataclasses a spec
describes (:class:`~repro.experiments.scenarios.Preset`,
:class:`~repro.experiments.engine.ScenarioSpec` and
:class:`~repro.experiments.engine.EngineOptions`) by one checker,
:func:`check_fields`, so the schema cannot drift from the code.  Names
are checked against the unified component registry
(:mod:`repro.registry`), so out-of-tree plugins registered through
``register_plugin`` / entry points validate exactly like built-ins.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import fields
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Mapping,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.experiments.engine import (
    SPEC_ENGINE_OPTIONS,
    SPEC_FORMAT,
    SPEC_SCHEMA_VERSION,
    EngineOptions,
    ScenarioSpec,
    SweepPlan,
)
from repro.experiments.scenarios import Preset
from repro.registry import _did_you_mean, registry

#: the JSON name of each scalar type a spec field can carry
_JSON_NAMES: Dict[Any, str] = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    type(None): "null",
}

#: field-metadata bounds: (key, sign, test)
_BOUNDS = (
    ("min", ">=", operator.ge), ("gt", ">", operator.gt),
    ("max", "<=", operator.le),
)


class SpecValidationError(ValueError):
    """A spec payload that failed schema validation.

    ``errors`` holds one actionable message per problem; ``str()`` joins
    them, prefixed with the file path when one is known.
    """

    def __init__(
        self, errors: List[str], source: Optional[str] = None
    ) -> None:
        self.errors = list(errors)
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(
            "\n".join(f"{prefix}{error}" for error in self.errors)
        )


def check_fields(
    cls: Any,
    payload: Mapping[str, Any],
    where: Callable[[str], str] = str,
    known: Optional[Collection[str]] = None,
) -> List[str]:
    """Every problem with ``payload`` as values for the fields of the
    dataclass ``cls`` — the one schema checker behind the preset, cell
    and ``engine`` blocks of a spec and :class:`EngineOptions`.

    Types come from the type hints: ``Optional[X]`` admits null,
    ``float`` admits integers (finite values only), nothing but ``bool``
    admits a boolean, and ``Tuple[X, ...]`` / ``Tuple[X, Y]`` fields are
    arrays whose elements are checked once the container passed (a
    tuple of ``(str, V)`` pairs may also be an object).  Field metadata
    adds value rules, applied to each scalar (each element, in a tuple
    field): ``choices`` (a tuple, or a callable returning the names),
    ``registry`` (a component namespace), and the bounds ``min`` /
    ``max`` (inclusive) and ``gt`` (exclusive).  ``known`` limits the
    fields the payload may set; ``where`` names a field in the messages.
    """
    declared = {f.name: f for f in fields(cls)}
    allowed = set(declared if known is None else known)
    hints = _type_hints(cls)
    problems: List[str] = []
    for name, value in payload.items():
        if name not in allowed:
            problems.append(
                _with_hint(f"{where(name)}: unknown field", name, allowed)
            )
        else:
            problems.extend(
                _check_value(
                    value, hints[name], declared[name].metadata, where(name)
                )
            )
    return problems


@lru_cache(maxsize=None)
def _type_hints(cls: Any) -> Dict[str, Any]:
    return get_type_hints(cls)


def _under(prefix: str) -> Callable[[str], str]:
    return lambda name: f"{prefix}.{name}"


def _with_hint(message: str, word: object, choices: Collection[str]) -> str:
    suggestion = (
        _did_you_mean(word, choices) if isinstance(word, str) else None
    )
    return f"{message} — did you mean {suggestion!r}?" if suggestion else message


def _expected(hint: Any) -> str:
    if get_origin(hint) is Union:
        return " or ".join(_expected(arm) for arm in get_args(hint))
    if get_origin(hint) is tuple:
        return "array or object" if _is_pairs(hint) else "array"
    name = _JSON_NAMES.get(hint)
    return name if name is not None else str(getattr(hint, "__name__", hint))


def _is_pairs(hint: Any) -> bool:
    """``Tuple[Tuple[str, V], ...]`` — a mapping in pair form."""
    args = get_args(hint)
    return (
        len(args) == 2
        and args[1] is Ellipsis
        and get_args(args[0])[:1] == (str,)
        and len(get_args(args[0])) == 2
    )


def _check_value(
    value: Any, hint: Any, meta: Mapping[str, Any], spot: str
) -> List[str]:
    expected = _expected(hint)
    if get_origin(hint) is Union:  # Optional[X], the only union used
        if value is None:
            return []
        (hint,) = [arm for arm in get_args(hint) if arm is not type(None)]
    if hint is object:
        return []
    array = get_origin(hint) is tuple
    if array and isinstance(value, dict) and _is_pairs(hint):
        value = [[key, item] for key, item in value.items()]
    kind = (list, tuple) if array else (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(
        value, kind
    ):
        got = (
            "a boolean"
            if isinstance(value, bool)
            else f"{type(value).__name__} ({value!r})"
        )
        return [f"{spot}: expected {expected}, got {got}"]
    if array:
        return _check_items(value, hint, meta, spot)
    try:
        finite = hint is not float or math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        return [f"{spot}: expected a finite number, got {value!r}"]
    return _check_rules(value, meta, spot)


def _check_items(
    value: Any, hint: Any, meta: Mapping[str, Any], spot: str
) -> List[str]:
    """Element checks for an array that passed the container check."""
    args = get_args(hint)
    items = args[:1] * len(value) if args[-1] is Ellipsis else args
    if len(items) != len(value):
        return [f"{spot}: expected {len(items)} entries, got {value!r}"]
    return [
        problem
        for index, (item, item_hint) in enumerate(zip(value, items))
        for problem in _check_value(item, item_hint, meta, f"{spot}[{index}]")
    ]


def _check_rules(
    value: Any, meta: Mapping[str, Any], spot: str
) -> List[str]:
    """The metadata rules for one scalar that passed its type check."""
    namespace = meta.get("registry")
    names = registry.names(namespace) if namespace else meta.get("choices")
    names = names() if callable(names) else names
    if names is not None and value not in names:
        noun = namespace[:-1] if namespace else "value"
        suggestion = _did_you_mean(value, names)
        return [
            f"{spot}: unknown {noun} {value!r}"
            + (
                f" — did you mean {suggestion!r}?"
                if suggestion
                else f"; choices: {list(names)}"
            )
        ]
    return [
        f"{spot}: must be {sign} {meta[key]}, got {value!r}"
        for key, sign, holds in _BOUNDS
        if key in meta and not holds(value, meta[key])
    ]


def current_preset(block: Any) -> Any:
    """A spec's ``preset`` block as this build reads it, without the
    ``max_workers`` key older builds saved for a retired thread-round
    knob that never changed a result (dropped from a copy)."""
    if isinstance(block, dict) and "max_workers" in block:
        block = dict(block)
        del block["max_workers"]
    return block


def validate_plan_payload(
    payload: Dict, source: Optional[str] = None
) -> None:
    """Validate a sweep-spec payload; raise :class:`SpecValidationError`
    listing **every** problem (nothing is constructed on failure)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        raise SpecValidationError(
            [f"spec root: expected an object, got {type(payload).__name__}"],
            source,
        )
    fmt = payload.get("format")
    if fmt is not None and fmt != SPEC_FORMAT:
        errors.append(
            f"format: expected {SPEC_FORMAT!r}, got {fmt!r} — this file "
            f"is not a sweep spec"
        )
    version = payload.get("schema_version")
    if version is None:
        errors.append(
            f"schema_version: required field is missing (current version "
            f"is {SPEC_SCHEMA_VERSION})"
        )
    elif isinstance(version, bool) or version != SPEC_SCHEMA_VERSION:
        errors.append(
            f"schema_version: this build reads version "
            f"{SPEC_SCHEMA_VERSION}, the file says {version!r} — "
            f"regenerate the spec (e.g. repro.api.experiment(...).save_spec) "
            f"or run it with a matching repro build"
        )
    if errors:
        # a wrong version makes every downstream check unreliable
        raise SpecValidationError(errors, source)
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        errors.append("name: required non-empty string is missing")
    kind = payload.get("kind", "federation")
    if kind not in ("federation", "footprint"):
        errors.append(
            f"kind: expected 'federation' or 'footprint', got {kind!r}"
        )
    top_level = (
        "format", "schema_version", "name", "kind", "preset", "cells",
        "engine",
    )
    for key in payload:
        if key not in top_level:
            errors.append(
                _with_hint(f"{key}: unknown top-level field", key, top_level)
            )
    if payload.get("engine") is not None:
        # scheduling and failure-policy hints for run_spec, never
        # anything that could change the numbers; their combination is
        # checked once run_spec merges them with the caller's options
        _check_block(
            EngineOptions, payload["engine"], "engine", errors,
            SPEC_ENGINE_OPTIONS,
        )
    preset = _check_block(
        Preset, current_preset(payload.get("preset")), "preset", errors,
        required="name",
    )
    if preset is not None and preset["num_malicious"] > preset["num_clients"]:
        errors.append(
            f"preset.num_malicious: {preset['num_malicious']} exceeds "
            f"preset.num_clients ({preset['num_clients']})"
        )
        preset = None
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells: expected a non-empty array of cell objects")
        cells = []
    for index, cell in enumerate(cells):
        where = f"cells[{index}]"
        values = _check_block(
            ScenarioSpec, cell, where, errors, required="framework"
        )
        if values is None:
            continue
        if kind == "footprint":
            for required in ("input_dim", "num_classes"):
                if values[required] is None:
                    errors.append(
                        f"{where}.{required}: footprint cells must set an "
                        f"explicit problem shape"
                    )
        elif preset is not None:
            _check_federation(values, where, preset, errors)
        _check_kwargs(values, where, errors)
    if errors:
        raise SpecValidationError(errors, source)


def _check_block(
    cls: Any,
    block: Any,
    where: str,
    errors: List[str],
    known: Optional[Collection[str]] = None,
    required: str = "",
) -> Optional[Dict[str, Any]]:
    """Check one object-valued block against ``cls``'s fields; returns
    its values, defaults filled in, when it has no problems."""
    if not isinstance(block, dict):
        errors.append(
            f"{where}: expected an object, got {type(block).__name__}"
        )
        return None
    problems = check_fields(cls, block, _under(where), known)
    if required and required not in block:
        problems.append(f"{where}.{required}: required field is missing")
    errors.extend(problems)
    if problems:
        return None
    return {f.name: block.get(f.name, f.default) for f in fields(cls)}


def _check_federation(
    cell: Dict[str, Any],
    where: str,
    preset: Dict[str, Any],
    errors: List[str],
) -> None:
    """A cell's federation must exist: a building to survey, and no
    more attackers than clients (clean cells field none)."""
    if cell["building"] is None and not preset["buildings"]:
        errors.append(
            f"{where}.building: null means the preset's first building, "
            f"but preset.buildings is empty"
        )
    clients = cell["num_clients"] or preset["num_clients"]
    malicious = cell["num_malicious"]
    if malicious is None:
        malicious = preset["num_malicious"]
    if cell["attack"] is not None and malicious > clients:
        errors.append(
            f"{where}.num_malicious: {malicious} exceeds the cell's "
            f"num_clients ({clients})"
        )


def _check_kwargs(
    cell: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Each framework kwarg must be one some registered framework
    accepts (typos get a did-you-mean), named once."""
    kwargs = cell["framework_kwargs"]
    names = (
        list(kwargs) if isinstance(kwargs, dict) else [k for k, _ in kwargs]
    )
    if len(set(names)) != len(names):
        errors.append(f"{where}.framework_kwargs: a kwarg is named twice")
    info = registry.get("frameworks", cell["framework"])
    universe = registry.accepted_kwargs("frameworks")
    for kwarg in names:
        if not info.accepts_kwarg(kwarg) and kwarg not in universe:
            errors.append(
                _with_hint(
                    f"{where}.framework_kwargs.{kwarg}: no registered "
                    f"framework accepts this kwarg",
                    kwarg,
                    universe,
                )
            )


def payload_to_json(payload: Dict) -> str:
    """A spec payload as pretty-printed, newline-terminated, diff-stable
    JSON — the one formatting authority for every spec writer (golden
    specs and builder-saved specs must stay byte-compatible)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_payload(payload: Dict, path: str) -> None:
    """Write a spec payload as a sweep-spec file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(payload_to_json(payload))


def plan_to_json(plan: SweepPlan) -> str:
    """The plan as spec-file JSON text."""
    return payload_to_json(plan.to_dict())


def save_plan(plan: SweepPlan, path: str) -> None:
    """Write a plan as a sweep-spec file (the golden-spec format)."""
    save_payload(plan.to_dict(), path)


def load_payload(path: str) -> Dict:
    """Read + validate a sweep-spec file into its raw payload dict
    (including the optional ``engine`` scheduling block).

    Raises :class:`SpecValidationError` (carrying the file path) for
    malformed JSON or schema violations.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise SpecValidationError(
            [f"cannot read spec file: {error}"], source=path
        ) from None
    except ValueError as error:
        raise SpecValidationError(
            [f"not valid JSON: {error}"], source=path
        ) from None
    validate_plan_payload(payload, source=path)
    return payload


def load_plan(path: str) -> SweepPlan:
    """Read + validate a sweep-spec file into a :class:`SweepPlan`."""
    return SweepPlan.from_dict(load_payload(path), validate=False)
