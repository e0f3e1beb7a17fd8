"""Modular prompt structure and the I/O constraints its outputs must satisfy.

A prompt is four components (role, requirements, knowledge, history) plus an
I/O spec. All values here are immutable; edits go through replace_component,
which returns a new prompt with the revision counter bumped.

Every JSON record the package reads (prompt files, planner replies, trace
records, config files) goes through one reader, _read_record, which checks it
against a dataclass's annotations; _write_record writes one by the same table.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import operator
import re
import types
import typing
from dataclasses import dataclass, field, replace
from typing import Mapping

from .errors import InvalidComponentError

FREE_TEXT = "free-text"
JSON_OBJECT = "json-object"
CODE_BLOCK = "code-block"
NUMERIC = "numeric"
OUTPUT_FORMATS = (FREE_TEXT, JSON_OBJECT, CODE_BLOCK, NUMERIC)

FORMAT_MISMATCH = "format-mismatch"
MISSING_KEY = "missing-key"
NON_NUMERIC = "non-numeric"


class PromptComponentKind(enum.Enum):
    ROLE = "role"
    REQUIREMENTS = "requirements"
    KNOWLEDGE = "knowledge"
    HISTORY = "history"


def _read_record(cls, data, path=()):
    """The dataclass cls read from the JSON object data: every key names an
    init field, every field without a default is given, and every value
    matches its annotation (see _kind), else a ValueError names the field
    path; a field left out takes its default. path is a nested record's
    (parent path, key), () at the top."""
    kinds, required, _ = _reader(cls)
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object at {_where(path) or 'the top'}, got {data!r}")
    values = {}
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is None:
            raise ValueError(f"unknown field {_where((path, key))}")
        allowed, items, build = kind
        if type(value) not in allowed:
            raise _invalid((path, key), value)
        if build is not None and value is not None:
            if items is None:
                value = build(value, (path, key))
            else:
                for item in value.values() if type(value) is dict else value:
                    if type(item) not in items:
                        raise _invalid((path, key), value, items)
                value = build(value)
        values[key] = value
    if not data.keys() >= required:
        raise ValueError(f"missing field {_where((path, min(required - data.keys())))}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        if not path:
            raise
        raise ValueError(f"{_where(path)}: {exc}") from exc


def _write_record(record) -> dict:
    """record as the JSON object _read_record reads it back from, less the
    fields that hold their defaults, which _read_record fills back in."""
    data = {}
    for name, (default, write) in _reader(type(record))[2].items():
        value = getattr(record, name)
        if default is dataclasses.MISSING or value != default:
            data[name] = value if write is None else write(value)
    return data


def _write_field(record, name: str):
    """record's field name as _write_record writes it."""
    value = getattr(record, name)
    write = _reader(type(record))[2][name][1]
    return value if write is None else write(value)


@functools.cache
def _reader(cls) -> tuple[dict, frozenset, dict]:
    """cls's init field name -> kind, the names of those without a default,
    and, in field order, name -> (default, writer), the default being
    dataclasses.MISSING for a field without one (see _kind and _writer)."""
    hints = typing.get_type_hints(cls)
    init = [f for f in dataclasses.fields(cls) if f.init]
    required = frozenset(f.name for f in init
                         if f.default is f.default_factory is dataclasses.MISSING)
    json_hints = {f.name: f.metadata.get("json", hints[f.name]) for f in init}
    return ({name: _kind(hint) for name, hint in json_hints.items()}, required,
            {f.name: (f.default if f.default_factory is dataclasses.MISSING
                      else f.default_factory(), _writer(json_hints[f.name])) for f in init})


def _writer(hint):
    """How a value read as _kind(hint) is written: by a function of it, or
    as itself (None). A dataclass is its object, an Enum its value, a tuple
    an array, a frozenset a sorted one, a dict[str, T] of plain T an object."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        write = _writer(args[0])
        return write and (lambda value: None if value is None else write(value))
    if dataclasses.is_dataclass(hint):
        return _write_record
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return operator.attrgetter("value")
    if origin is dict:
        return dict
    if origin in (tuple, frozenset):
        write = _writer(args[0])
        order = sorted if origin is frozenset else list
        return order if write is None else lambda value: order(map(write, value))
    return None


def _kind(hint) -> tuple:
    """How a value annotated hint (or metadata["json"], where the JSON shape
    differs) is read: (allowed, items, build), allowed holding its exact JSON
    types. A dataclass is an object, tuple[T, ...] and frozenset[T] are
    arrays, tuple[A, B] of plain A and B is an array of that length,
    dict[str, T] is an object, an Enum one of its values, X | None also takes
    null, a float a finite number (an int too), and a plain class itself. A
    container of plain values is built by build(value) once its items have
    the types in items; any other non-plain value is checked again, as an
    array item must be, and built by build(value, path)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # every union read here is X | None
        allowed, items, build = _kind(args[0])
        return allowed | {type(None)}, items, build
    if dataclasses.is_dataclass(hint):
        return frozenset({dict}), None, functools.partial(_read_record, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = {member.value: member for member in hint}
        allowed = frozenset(map(type, members))

        def member(value, path):
            if type(value) in allowed and value in members:
                return members[value]
            raise _invalid(path, value)
        return allowed, None, member
    if origin is tuple and args[-1] is not Ellipsis:
        fixed = [_kind(arg) for arg in args]

        def pair(value, path):
            if type(value) is not list or len(value) != len(fixed):
                raise _invalid(path, value)
            for i, ((item_types, _, build), item) in enumerate(zip(fixed, value)):
                if type(item) not in item_types:
                    raise _invalid((path, i), item)
                if build is not None:
                    build(item, (path, i))
            return tuple(value)
        return frozenset({list}), None, pair
    if origin in (tuple, frozenset, dict):
        allowed, items, build = _kind(args[-1] if origin is dict else args[0])
        if build is None:
            return frozenset({dict if origin is dict else list}), allowed, origin

        def array(value, path):  # of records, fixed-size tuples or numbers
            return tuple([build(item, (path, i)) for i, item in enumerate(value)])
        return frozenset({list}), None, array
    if hint is float:
        def number(value, path):  # json reads NaN and Infinity as floats too
            if type(value) is int or type(value) is float and math.isfinite(value):
                return value
            raise _invalid(path, value)
        return frozenset({float, int}), None, number
    return frozenset({hint}), None, None


def _where(path) -> str:
    """A (parent path, key) chain as text, such as behaviors[0].outcomes."""
    if not path:
        return ""
    parent, key = path
    text = _where(parent)
    return f"{text}[{key}]" if type(key) is int else f"{text}.{key}" if text else key


def _invalid(path, value, items=None) -> ValueError:
    """The error for value at path, or for its first item not of the items types."""
    if items is not None:
        pairs = value.items() if type(value) is dict else enumerate(value)
        path, value = next(((path, k), v) for k, v in pairs if type(v) not in items)
    return ValueError(f"field {_where(path)} has invalid value {value!r}")


class _JsonRecord:
    """A dataclass that to_json_dict writes as JSON, without the fields that
    hold their defaults, and from_json_dict reads back."""

    to_json_dict = _write_record

    @classmethod
    def from_json_dict(cls, data: dict):
        return _read_record(cls, data)


@dataclass(frozen=True)
class IoSpec(_JsonRecord):
    """Input schema plus the admissible-output constraint for one subtask."""

    # a JSON object of field name -> kind, held as sorted pairs
    input_schema: tuple[tuple[str, str], ...] = field(
        default=(), metadata={"json": dict[str, str]})
    output_constraint: str = ""
    output_format: str = FREE_TEXT
    required_keys: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.input_schema, Mapping):
            object.__setattr__(self, "input_schema", tuple(sorted(self.input_schema.items())))
        else:
            object.__setattr__(self, "input_schema", tuple(tuple(p) for p in self.input_schema))
        object.__setattr__(self, "required_keys", tuple(self.required_keys))
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output_format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )
        if self.output_format == JSON_OBJECT and not self.required_keys:
            raise ValueError("a json-object spec must declare its required keys")


@dataclass(frozen=True)
class ModularPrompt(_JsonRecord):
    """The unit of refinement: role, requirement clauses, domain knowledge,
    history, and an I/O spec, with a monotone revision counter."""

    role: str
    requirements: tuple[str, ...] = ()
    knowledge: str = ""
    history: str = ""
    io_spec: IoSpec = field(default_factory=IoSpec)
    revision: int = 0

    def __post_init__(self):
        object.__setattr__(self, "requirements", tuple(self.requirements))
        if not self.role or not self.role.strip():
            raise InvalidComponentError("role must be non-empty")
        if any(not c or not c.strip() for c in self.requirements):
            raise InvalidComponentError("requirement clauses must be non-empty")
        if self.revision < 0:
            raise ValueError("revision must be non-negative")


def _coerce_clauses(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(line.strip() for line in value.splitlines() if line.strip())
    clauses = tuple(str(c) for c in value)
    if any(not c.strip() for c in clauses):
        raise InvalidComponentError("requirement clauses must be non-empty")
    return clauses


def replace_component(
    p: ModularPrompt, kind: PromptComponentKind, new_value
) -> ModularPrompt:
    """Return a copy of p with one component replaced and revision bumped by 1.

    Replacing with an identical value still increments the revision: the
    counter counts accepted review cycles, not textual diffs. For REQUIREMENTS
    the new value is the full replacement clause list (a sequence, or a string
    split on newlines).
    """
    if kind is PromptComponentKind.ROLE:
        if not isinstance(new_value, str) or not new_value.strip():
            raise InvalidComponentError("role replacement must be non-empty text")
        return replace(p, role=new_value, revision=p.revision + 1)
    if kind is PromptComponentKind.REQUIREMENTS:
        return replace(p, requirements=_coerce_clauses(new_value), revision=p.revision + 1)
    if kind is PromptComponentKind.KNOWLEDGE:
        return replace(p, knowledge=str(new_value), revision=p.revision + 1)
    if kind is PromptComponentKind.HISTORY:
        return replace(p, history=str(new_value), revision=p.revision + 1)
    raise InvalidComponentError(f"unknown component kind: {kind!r}")


def _render_io_spec(spec: IoSpec) -> str:
    lines = []
    if spec.input_schema:
        fields = "; ".join(f"{name}: {kind}" for name, kind in spec.input_schema)
        lines.append(f"Input fields: {fields}")
    else:
        lines.append("Input fields: (none)")
    lines.append(f"Output format: {spec.output_format}")
    if spec.output_format == JSON_OBJECT:
        lines.append("Required keys: " + ", ".join(spec.required_keys))
    if spec.output_constraint:
        lines.append(f"Output constraint: {spec.output_constraint}")
    return "\n".join(lines)


def render_prompt(p: ModularPrompt) -> str:
    """Deterministic rendering: fixed section order Role, Requirements,
    Knowledge, History, I/O Specification, each under a labeled header.
    Identical prompts render to byte-identical text."""
    if p.requirements:
        req = "\n".join(f"{i + 1}. {clause}" for i, clause in enumerate(p.requirements))
    else:
        req = "(none)"
    sections = [
        ("## Role", p.role),
        ("## Requirements", req),
        ("## Knowledge", p.knowledge if p.knowledge else "(none)"),
        ("## History", p.history if p.history else "(none)"),
        ("## I/O Specification", _render_io_spec(p.io_spec)),
    ]
    return "\n\n".join(f"{header}\n{body}" for header, body in sections)


_FENCED_BLOCK = re.compile(r"```[^\n`]*\n.*?```", re.DOTALL)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?\Z")


def validate_output(output: str, spec: IoSpec) -> str | None:
    """Check an output against the spec's format constraint: None when it
    holds, else the machine-readable reason it fails, format-mismatch,
    missing-key or non-numeric. Pure: repeated calls agree. Failures are
    in-band (never raised).

    Only decidable format checks happen here; semantic constraint checking is
    the reviewer's job. A blank output fails every format.
    """
    if not output.strip():
        return FORMAT_MISMATCH
    if spec.output_format == FREE_TEXT:
        return None
    if spec.output_format == NUMERIC:
        return None if _NUMBER.match(output.strip()) else NON_NUMERIC
    if spec.output_format == CODE_BLOCK:
        return None if _FENCED_BLOCK.search(output) else FORMAT_MISMATCH
    # json-object
    try:
        parsed = json.loads(output)
    except (ValueError, TypeError):
        return FORMAT_MISMATCH
    if not isinstance(parsed, dict):
        return FORMAT_MISMATCH
    return MISSING_KEY if any(key not in parsed for key in spec.required_keys) else None
