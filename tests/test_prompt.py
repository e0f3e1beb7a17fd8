import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from promptor import (
    InvalidComponentError,
    IoSpec,
    ModularPrompt,
    PromptComponentKind,
    render_prompt,
    replace_component,
    validate_output,
)

HEADERS = ["## Role", "## Requirements", "## Knowledge", "## History", "## I/O Specification"]


def sample_prompt() -> ModularPrompt:
    return ModularPrompt(
        role="You are a careful data analyst.",
        requirements=("Answer concisely.", "Cite the column names you used."),
        knowledge="The table has columns date, region, revenue.",
        history="Previous step produced a cleaned CSV.",
        io_spec=IoSpec(output_format="free-text", output_constraint="one paragraph"),
    )


def section_bodies(text: str) -> dict[str, str]:
    out = {}
    current = None
    for line in text.splitlines():
        if line in HEADERS:
            current = line
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return {k: "\n".join(v) for k, v in out.items()}


# -- rendering ----------------------------------------------------------------


def test_render_has_all_sections_in_order():
    text = render_prompt(sample_prompt())
    positions = [text.index(h) for h in HEADERS]
    assert positions == sorted(positions)


def test_render_is_deterministic():
    p = sample_prompt()
    assert render_prompt(p) == render_prompt(p)


def test_render_empty_components_show_placeholder():
    p = ModularPrompt(role="You are an agent.")
    bodies = section_bodies(render_prompt(p))
    assert bodies["## Requirements"].strip() == "(none)"
    assert bodies["## Knowledge"].strip() == "(none)"
    assert bodies["## History"].strip() == "(none)"


def test_render_numbers_requirement_clauses():
    bodies = section_bodies(render_prompt(sample_prompt()))
    assert bodies["## Requirements"].splitlines() == [
        "1. Answer concisely.",
        "2. Cite the column names you used.",
    ]


def test_render_diff_confined_to_changed_section():
    p = sample_prompt()
    q = replace_component(
        p, PromptComponentKind.REQUIREMENTS, ("Answer concisely.", "Show your work.")
    )
    pb, qb = section_bodies(render_prompt(p)), section_bodies(render_prompt(q))
    changed = [h for h in HEADERS if pb[h] != qb[h]]
    assert changed == ["## Requirements"]


def test_render_includes_io_spec_details():
    spec = IoSpec(
        input_schema={"city": "string"},
        output_format="json-object",
        required_keys=("answer",),
        output_constraint="temperature in celsius",
    )
    text = render_prompt(ModularPrompt(role="You are an agent.", io_spec=spec))
    assert "json-object" in text
    assert "answer" in text
    assert "city: string" in text


# -- replace_component ----------------------------------------------------------


def test_replace_each_component_kind():
    p = sample_prompt()
    cases = {
        PromptComponentKind.ROLE: "You are a meticulous auditor.",
        PromptComponentKind.KNOWLEDGE: "New facts.",
        PromptComponentKind.HISTORY: "New history.",
    }
    for kind, value in cases.items():
        q = replace_component(p, kind, value)
        assert getattr(q, kind.value) == value
        assert q.revision == p.revision + 1
        for other in PromptComponentKind:
            if other is not kind:
                assert getattr(q, other.value) == getattr(p, other.value)


def test_replace_is_value_semantics():
    p = sample_prompt()
    replace_component(p, PromptComponentKind.KNOWLEDGE, "changed")
    assert p.knowledge == "The table has columns date, region, revenue."
    assert p.revision == 0


def test_replace_identical_value_still_increments():
    p = sample_prompt()
    q = replace_component(p, PromptComponentKind.KNOWLEDGE, p.knowledge)
    assert q.revision == p.revision + 1
    assert q.knowledge == p.knowledge


def test_replace_requirements_accepts_newline_blob():
    p = sample_prompt()
    q = replace_component(p, PromptComponentKind.REQUIREMENTS, "First.\nSecond.\n")
    assert q.requirements == ("First.", "Second.")


def test_replace_empty_role_rejected():
    with pytest.raises(InvalidComponentError):
        replace_component(sample_prompt(), PromptComponentKind.ROLE, "")


def test_replace_a_kind_that_is_no_component_kind_rejected():
    # the kind's value is not enough: a replacement names the enum member
    with pytest.raises(InvalidComponentError, match="unknown component kind"):
        replace_component(sample_prompt(), "role", "You are a meticulous auditor.")


def test_prompt_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample_prompt().role = "other"


def test_empty_requirement_clause_rejected():
    with pytest.raises(InvalidComponentError):
        ModularPrompt(role="You are an agent.", requirements=("ok", ""))


edit_kinds = st.sampled_from(
    [PromptComponentKind.ROLE, PromptComponentKind.KNOWLEDGE, PromptComponentKind.HISTORY]
)


@given(st.lists(st.tuples(edit_kinds, st.text(min_size=1).filter(lambda s: s.strip())), max_size=12))
def test_revision_counts_edits(edits):
    p = ModularPrompt(role="You are an agent.")
    for kind, value in edits:
        p = replace_component(p, kind, value)
    assert p.revision == len(edits)


# -- validate_output --------------------------------------------------------------


def test_validate_free_text_always_passes():
    # any text passes; a blank output is no text (next test)
    for output in ("x", " not json, no number ", "```"):
        assert validate_output(output, IoSpec(output_format="free-text")) is None


@pytest.mark.parametrize("spec", [
    IoSpec(output_format="free-text"),
    IoSpec(output_format="json-object", required_keys=("answer",)),
    IoSpec(output_format="code-block"),
    IoSpec(output_format="numeric"),
], ids=lambda spec: spec.output_format)
def test_validate_blank_output_fails_every_format(spec):
    for output in ("", "  ", "\n\t"):
        assert validate_output(output, spec) == "format-mismatch"


def test_validate_json_object_pass():
    spec = IoSpec(output_format="json-object", required_keys=("answer",))
    assert validate_output('{"answer": 3}', spec) is None


def test_validate_json_object_missing_key():
    spec = IoSpec(output_format="json-object", required_keys=("answer",))
    assert validate_output('{"x": 1}', spec) == "missing-key"


def test_validate_json_object_not_json():
    spec = IoSpec(output_format="json-object", required_keys=("answer",))
    assert validate_output("not json at all", spec) == "format-mismatch"


def test_validate_json_array_is_mismatch():
    spec = IoSpec(output_format="json-object", required_keys=("answer",))
    assert validate_output("[1, 2]", spec) == "format-mismatch"


def test_validate_numeric():
    spec = IoSpec(output_format="numeric")
    assert validate_output(" 42.5 ", spec) is None
    assert validate_output("-1e-3", spec) is None
    assert validate_output("hello", spec) == "non-numeric"
    assert validate_output("42 apples", spec) == "non-numeric"


def test_validate_code_block():
    spec = IoSpec(output_format="code-block")
    assert validate_output("```python\nprint(1)\n```", spec) is None
    assert validate_output("print(1)", spec) == "format-mismatch"


def test_validate_is_pure():
    spec = IoSpec(output_format="numeric")
    assert validate_output("3.5", spec) == validate_output("3.5", spec)


# -- IoSpec -------------------------------------------------------------------


def test_io_spec_json_object_needs_keys():
    with pytest.raises(ValueError):
        IoSpec(output_format="json-object")


def test_io_spec_rejects_unknown_format():
    with pytest.raises(ValueError):
        IoSpec(output_format="yaml")


def test_io_spec_round_trip():
    spec = IoSpec(
        input_schema={"a": "int", "b": "text"},
        output_format="json-object",
        required_keys=("answer", "unit"),
        output_constraint="SI units",
    )
    assert IoSpec.from_json_dict(spec.to_json_dict()) == spec


def test_modular_prompt_round_trip():
    p = sample_prompt()
    assert ModularPrompt.from_json_dict(p.to_json_dict()) == p
