"""Modular prompt structure and the I/O constraints its outputs must satisfy.

A prompt is four components (role, requirements, knowledge, history) plus an
I/O spec. All values here are immutable; edits go through replace_component,
which returns a new prompt with the revision counter bumped.
"""

from __future__ import annotations

import enum
import json
import re
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


# the JSON type of each key of an io_spec; input_schema maps names to kind
# strings and required_keys lists strings
_IO_SPEC_KEYS = {"input_schema": dict, "output_constraint": str, "output_format": str,
                 "required_keys": list}


@dataclass(frozen=True)
class IoSpec:
    """Input schema plus the admissible-output constraint for one subtask."""

    input_schema: tuple[tuple[str, str], ...] = ()
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

    def to_json_dict(self) -> dict:
        return {
            "input_schema": {name: kind for name, kind in self.input_schema},
            "output_constraint": self.output_constraint,
            "output_format": self.output_format,
            "required_keys": list(self.required_keys),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "IoSpec":
        """The spec to_json_dict writes. Every key is optional; a non-object,
        an unknown key or a value of the wrong JSON type is a ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"io_spec must be a JSON object, got {data!r}")
        for key, value in data.items():
            kind = _IO_SPEC_KEYS.get(key)
            if kind is None:
                raise ValueError(f"unknown io_spec key {key!r}")
            # replay parses one spec per prompt: test the items only of a
            # non-empty list or object
            if not isinstance(value, kind) or value and kind is not str and not all(
                    isinstance(item, str) for item in (value.values() if kind is dict else value)):
                raise ValueError(f"io_spec field {key} has invalid value {value!r}")
        return cls(
            input_schema=data.get("input_schema", {}),
            output_constraint=data.get("output_constraint", ""),
            output_format=data.get("output_format", FREE_TEXT),
            required_keys=data.get("required_keys", ()),
        )


@dataclass(frozen=True)
class ValidationResult:
    """In-band outcome of validate_output; never raised."""

    ok: bool
    reason: str | None = None
    detail: str = ""


# the JSON type of each key of a prompt file; requirements lists strings
_PROMPT_KEYS = {"role": str, "requirements": list, "knowledge": str, "history": str,
                "io_spec": dict, "revision": int}


@dataclass(frozen=True)
class ModularPrompt:
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

    def to_json_dict(self) -> dict:
        return {
            "role": self.role,
            "requirements": list(self.requirements),
            "knowledge": self.knowledge,
            "history": self.history,
            "io_spec": self.io_spec.to_json_dict(),
            "revision": self.revision,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModularPrompt":
        """The prompt to_json_dict writes. Only role is required; an unknown
        key or a value of the wrong JSON type is a ValueError."""
        for key, value in data.items():
            kind = _PROMPT_KEYS.get(key)
            if kind is None:
                raise ValueError(f"unknown prompt key {key!r}")
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or kind is list and not all(isinstance(c, str) for c in value)):
                raise ValueError(f"prompt field {key} has invalid value {value!r}")
        if "role" not in data:
            raise ValueError("a prompt needs a role")
        return cls(
            role=data["role"],
            requirements=tuple(data.get("requirements", ())),
            knowledge=data.get("knowledge", ""),
            history=data.get("history", ""),
            io_spec=IoSpec.from_json_dict(data.get("io_spec", {})),
            revision=data.get("revision", 0),
        )


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


def validate_output(output: str, spec: IoSpec) -> ValidationResult:
    """Check an output against the spec's format constraint. Pure: repeated
    calls agree. Failures are in-band (never raised), with machine-readable
    reasons format-mismatch, missing-key, or non-numeric.

    Only decidable format checks happen here; semantic constraint checking is
    the reviewer's job. A blank output fails every format.
    """
    if not output.strip():
        return ValidationResult(ok=False, reason=FORMAT_MISMATCH, detail="empty output")
    if spec.output_format == FREE_TEXT:
        return ValidationResult(ok=True)
    if spec.output_format == NUMERIC:
        if _NUMBER.match(output.strip()):
            return ValidationResult(ok=True)
        return ValidationResult(ok=False, reason=NON_NUMERIC, detail="output is not a number")
    if spec.output_format == CODE_BLOCK:
        if _FENCED_BLOCK.search(output):
            return ValidationResult(ok=True)
        return ValidationResult(
            ok=False, reason=FORMAT_MISMATCH, detail="no fenced code block found"
        )
    # json-object
    try:
        parsed = json.loads(output)
    except (ValueError, TypeError):
        return ValidationResult(ok=False, reason=FORMAT_MISMATCH, detail="not valid JSON")
    if not isinstance(parsed, dict):
        return ValidationResult(ok=False, reason=FORMAT_MISMATCH, detail="JSON is not an object")
    missing = [key for key in spec.required_keys if key not in parsed]
    if missing:
        return ValidationResult(
            ok=False, reason=MISSING_KEY, detail="missing: " + ", ".join(missing)
        )
    return ValidationResult(ok=True)
