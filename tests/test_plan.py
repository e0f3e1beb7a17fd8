import dataclasses
import enum
import json
import re
from collections.abc import Mapping
from pathlib import Path

import pytest

from promptor import (
    IoSpec,
    ModularPrompt,
    Plan,
    PlanningFailure,
    PlanUpdate,
    StateError,
    Subtask,
    SubtaskStatus,
    with_status,
    with_subtask,
)
from promptor.plan import estimate_granularity
from promptor.prompt import _JsonRecord, _reader


def chain_plan() -> Plan:
    return Plan(
        task_description="Produce a revenue report.",
        subtasks=(
            Subtask(id="load", description="Load the sales CSV."),
            Subtask(id="clean", description="Drop malformed rows.", dependencies=frozenset({"load"})),
            Subtask(id="plot", description="Plot revenue by month.", dependencies=frozenset({"clean"})),
        ),
    )


# -- granularity ----------------------------------------------------------------


def test_granularity_single_clause():
    assert estimate_granularity("Load the sales CSV.") == 1


def test_granularity_then_connective():
    assert estimate_granularity("Load the file then clean it") == 2


def test_granularity_semicolons_and_sentences():
    assert estimate_granularity("Fetch data; clean it; plot it.") == 3
    assert estimate_granularity("Do A. Do B. Do C. Do D.") == 4


def test_granularity_defaults_from_description():
    sub = Subtask(id="s", description="Fetch data; clean it; plot it.")
    assert sub.granularity == 3


def test_granularity_explicit_override():
    assert Subtask(id="s", description="One thing.", granularity=2.5).granularity == 2.5
    with pytest.raises(ValueError):
        Subtask(id="s", description="One thing.", granularity=0)


# -- status machine ---------------------------------------------------------------


def test_legal_status_walk():
    sub = Subtask(id="s", description="Do a thing.")
    sub = sub.with_status(SubtaskStatus.STABLE_PROMPT_READY)
    sub = sub.with_status(SubtaskStatus.EXECUTED_FAILED)
    sub = sub.with_status(SubtaskStatus.REFORMULATED)
    sub = sub.with_status(SubtaskStatus.STABLE_PROMPT_READY)
    sub = sub.with_status(SubtaskStatus.EXECUTED_OK)
    assert sub.status is SubtaskStatus.EXECUTED_OK


def test_illegal_transitions_raise():
    sub = Subtask(id="s", description="Do a thing.")
    with pytest.raises(StateError):
        sub.with_status(SubtaskStatus.EXECUTED_OK)
    ok = sub.with_status(SubtaskStatus.STABLE_PROMPT_READY).with_status(
        SubtaskStatus.EXECUTED_OK
    )
    with pytest.raises(StateError):
        ok.with_status(SubtaskStatus.PENDING)


# -- plan construction --------------------------------------------------------------


def test_plan_reorders_topologically_with_stable_ties():
    plan = Plan(
        task_description="t",
        subtasks=(
            Subtask(id="c", description="Third.", dependencies=frozenset({"a", "b"})),
            Subtask(id="a", description="First."),
            Subtask(id="b", description="Second."),
        ),
    )
    # a and b tie; they keep their original relative order, c comes last
    assert [s.id for s in plan.subtasks] == ["a", "b", "c"]


def test_plan_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Plan(
            task_description="t",
            subtasks=(
                Subtask(id="a", description="One."),
                Subtask(id="a", description="Two."),
            ),
        )


def test_plan_rejects_unknown_dependency():
    with pytest.raises(ValueError):
        Plan(
            task_description="t",
            subtasks=(Subtask(id="a", description="One.", dependencies=frozenset({"ghost"})),),
        )


def test_plan_rejects_cycles():
    with pytest.raises(PlanningFailure):
        Plan(
            task_description="t",
            subtasks=(
                Subtask(id="a", description="One.", dependencies=frozenset({"b"})),
                Subtask(id="b", description="Two.", dependencies=frozenset({"a"})),
            ),
        )


def test_plan_lookup_and_dependents():
    plan = chain_plan()
    assert plan.subtask("clean").description == "Drop malformed rows."
    assert [s.id for s in plan.dependents("load")] == ["clean"]
    with pytest.raises(KeyError):
        plan.subtask("ghost")


def test_dependents_in_plan_order_across_updates():
    plan = Plan(
        task_description="t",
        subtasks=(
            Subtask(id="root", description="Start."),
            Subtask(id="zeta", description="Z.", dependencies=frozenset({"root"})),
            Subtask(id="alpha", description="A.", dependencies=frozenset({"root"})),
            Subtask(id="mid", description="M.", dependencies=frozenset({"zeta"})),
        ),
    )
    assert [s.id for s in plan.dependents("root")] == ["zeta", "alpha"]
    assert plan.dependents("alpha") == ()
    # a status change keeps the order and the index, and returns fresh subtasks
    ready = with_status(plan, "zeta", SubtaskStatus.STABLE_PROMPT_READY)
    assert [s.id for s in ready.dependents("root")] == ["zeta", "alpha"]
    assert ready.dependents("root")[0].status is SubtaskStatus.STABLE_PROMPT_READY
    # a dependency change re-sorts and rebuilds the index
    rewired = with_subtask(
        plan, Subtask(id="mid", description="M.", dependencies=frozenset({"alpha"}))
    )
    assert [s.id for s in rewired.dependents("zeta")] == []
    assert [s.id for s in rewired.dependents("alpha")] == ["mid"]
    with pytest.raises(KeyError):
        plan.dependents("ghost")


def test_with_subtask_replaces_by_id():
    plan = chain_plan()
    rewritten = Subtask(
        id="clean",
        description="Drop malformed rows; normalize encodings.",
        dependencies=frozenset({"load"}),
    )
    updated = with_subtask(plan, rewritten)
    assert updated.subtask("clean").granularity == 2
    assert plan.subtask("clean").granularity == 1
    with pytest.raises(KeyError):
        with_subtask(plan, Subtask(id="ghost", description="x"))


# -- serialization --------------------------------------------------------------


def test_plan_json_round_trip():
    plan = with_status(chain_plan(), "load", SubtaskStatus.STABLE_PROMPT_READY)
    data = plan.to_json_dict()
    assert Plan.from_json_dict(data) == plan
    assert data["subtasks"][1]["dependencies"] == ["load"]
    assert data["subtasks"][0]["status"] == "stable-prompt-ready"


def test_subtask_json_round_trip_with_spec_and_notes():
    sub = Subtask(
        id="s",
        description="Compute the answer.",
        io_spec=IoSpec(output_format="json-object", required_keys=("answer",)),
        injected_notes=("upstream schema: cols a,b",),
    )
    assert Subtask.from_json_dict(sub.to_json_dict()) == sub


SPEC = IoSpec(input_schema={"rows": "list", "unit": "text"}, output_format="json-object",
              required_keys=("answer", "unit"), output_constraint="SI units")
RECORDS = [
    SPEC,
    ModularPrompt(role="You are the executor.", requirements=("Answer in SI units.",),
                  knowledge="Rows are daily.", history="- load: 3 rows", io_spec=SPEC,
                  revision=2),
    Subtask(id="sum", description="Sum the rows. Convert the unit.",
            dependencies=frozenset({"load", "clean"}), granularity=1.5, io_spec=SPEC,
            status=SubtaskStatus.STABLE_PROMPT_READY, injected_notes=("rows are kg",)),
    dataclasses.replace(with_status(chain_plan(), "load", SubtaskStatus.STABLE_PROMPT_READY),
                        interaction_template="fan-out-fan-in", created_from="ab12"),
    PlanUpdate("load", "propagate-success", ("clean",), "rows are kg"),
]


# every field of each record holds a value other than its default
@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_every_record_reads_back_what_it_writes(record):
    # the writer and the reader go by the same field table
    data = json.loads(json.dumps(record.to_json_dict()))
    assert set(data) == {f.name for f in dataclasses.fields(record) if f.init}
    assert type(record).from_json_dict(data) == record


FULL_SPEC = {"input_schema": {}, "output_constraint": "", "output_format": "free-text",
             "required_keys": []}
FULL_SUBTASK = {"id": "s", "description": "Do it.", "dependencies": [], "granularity": 1,
                "io_spec": FULL_SPEC, "status": "pending", "injected_notes": []}
# each record with every field at its default; what it writes, which keeps
# only the fields without a default (and a subtask's granularity, which is
# never None once built); and the full form, every field written, as version
# 5 traces held it before defaults were left out
AT_DEFAULTS = [
    (IoSpec(), {}, FULL_SPEC),
    (ModularPrompt(role="r"), {"role": "r"},
     {"role": "r", "requirements": [], "knowledge": "", "history": "", "io_spec": FULL_SPEC,
      "revision": 0}),
    (Subtask(id="s", description="Do it."), {"id": "s", "description": "Do it.", "granularity": 1},
     FULL_SUBTASK),
    (Plan("t", (Subtask(id="s", description="Do it."),)),
     {"task_description": "t", "subtasks": [{"id": "s", "description": "Do it.", "granularity": 1}]},
     {"task_description": "t", "interaction_template": "linear-chain", "created_from": "",
      "subtasks": [FULL_SUBTASK]}),
]


@pytest.mark.parametrize("record, written, full", AT_DEFAULTS,
                         ids=[type(r).__name__ for r, _, _ in AT_DEFAULTS])
def test_a_record_at_its_defaults_writes_only_its_required_keys(record, written, full):
    assert json.loads(json.dumps(record.to_json_dict())) == written
    assert type(record).from_json_dict(written) == record
    assert type(record).from_json_dict(full) == record


class Shade(enum.Enum):
    LIGHT = "light"
    DARK = "dark"


@dataclasses.dataclass(frozen=True)
class Part(_JsonRecord):
    name: str
    weight: float = 1.0


@dataclasses.dataclass(frozen=True)
class EveryKind(_JsonRecord):
    """One field of each kind the reader reads."""

    text: str
    count: int = 0
    ratio: float = 0.5
    label: str | None = None
    words: tuple[str, ...] = ()
    tags: frozenset[str] = frozenset()
    shade: Shade = Shade.LIGHT
    part: Part = dataclasses.field(default_factory=lambda: Part("core"))
    parts: tuple[Part, ...] = ()
    # a JSON object of name -> kind, held as sorted pairs
    schema: tuple[tuple[str, str], ...] = dataclasses.field(
        default=(), metadata={"json": dict[str, str]})

    def __post_init__(self):
        if isinstance(self.schema, Mapping):
            object.__setattr__(self, "schema", tuple(sorted(self.schema.items())))


def test_the_writer_writes_every_kind_the_reader_reads():
    record = EveryKind(text="t", count=3, ratio=2.5, label="l", words=("b", "a"),
                       tags=frozenset({"y", "x"}), shade=Shade.DARK, part=Part("p", 2.0),
                       parts=(Part("q"), Part("r", 0.5)), schema={"rows": "list", "a": "text"})
    written = {"text": "t", "count": 3, "ratio": 2.5, "label": "l", "words": ["b", "a"],
               "tags": ["x", "y"], "shade": "dark", "part": {"name": "p", "weight": 2.0},
               "parts": [{"name": "q"}, {"name": "r", "weight": 0.5}],
               "schema": {"a": "text", "rows": "list"}}
    assert json.loads(json.dumps(record.to_json_dict())) == written
    assert EveryKind.from_json_dict(written) == record
    assert EveryKind(text="t").to_json_dict() == {"text": "t"}
    assert EveryKind.from_json_dict({"text": "t"}) == EveryKind(text="t")


README_RECORDS = {"plan": Plan, "subtask": Subtask, "`io_spec`": IoSpec, "prompt": ModularPrompt}


def test_readme_lists_each_default_a_record_leaves_out():
    # README's "Trace format" table gives each field a record leaves out at
    # its default, as the writer writes that default. A subtask's
    # granularity is never left out: once built it holds an estimate, not
    # its default None
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| record | field: default |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        label, defaults = line.strip("|").split(" | ")
        rows[label.strip().split(" (")[0]] = {
            name: json.loads(value) for name, value in re.findall(r"`(\w+)`: `([^`]*)`", defaults)}
    assert rows.keys() == README_RECORDS.keys()
    for label, cls in README_RECORDS.items():
        defaults = {name: default if write is None else write(default)
                    for name, (default, write) in _reader(cls)[2].items()
                    if default is not dataclasses.MISSING}
        if cls is Subtask:
            del defaults["granularity"]
        assert rows[label] == defaults, label
