"""Run configuration: one JSON document describing the task, the gate
parameters, the module toggles, and the backends, so a whole run is
reproducible from the file plus a seed, or from its trace header alone."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .agent_prompts import TEMPLATES
from .backends import (
    HASH_EMBEDDER,
    HTTP,
    SCRIPTED,
    BackendDescriptor,
    Embedder,
    Generator,
    HashEmbedder,
    HttpEmbedder,
    HttpGenerator,
    ScriptedBehavior,
    ScriptedGenerator,
    prompt_fingerprint,
)
from .errors import ConfigError
from .orchestrator import OrchestratorSettings, RefinementConfig
from .prompt import _read_record, _write_field
from .reports import DEFAULT_TOLERANCE, EXACT, _check_reference_fields

MODULE_KEYS = ("subtask_optimizer", "reviewer", "plan_updater", "knowledge_generator")


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object held by the file at path; what names the file in
    errors. A missing file, invalid JSON or a non-object is a ConfigError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def _load(cls, data, what: str):
    """An instance of the dataclass cls read from the JSON object data of a
    what document by prompt._read_record; any mistake is a ConfigError naming
    the field path, never a traceback."""
    try:
        return _read_record(cls, data)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


@dataclass(frozen=True, kw_only=True)
class _Default(ScriptedBehavior):
    """A scripted generator spec's default, answering any unmatched prompt.
    Draws are keyed by the incoming prompt's fingerprint, so the default's
    own key is a placeholder; so is a prefix rule's."""

    prompt_fingerprint: str = field(default="default", init=False)


@dataclass(frozen=True, kw_only=True)
class _PrefixRule(_Default):
    """Answers every prompt whose text starts with prefix."""

    prefix: str


@dataclass(frozen=True, kw_only=True)
class _Behavior(ScriptedBehavior):
    """Answers one prompt, named by its text or by its fingerprint."""

    prompt_fingerprint: str | None = None
    prompt: str | None = None

    def __post_init__(self):
        if (self.prompt is None) == (self.prompt_fingerprint is None):
            raise ValueError("a behavior needs exactly one of prompt or prompt_fingerprint")
        if self.prompt is not None:
            object.__setattr__(self, "prompt_fingerprint", prompt_fingerprint(self.prompt))
        super().__post_init__()


@dataclass(frozen=True)
class _ScriptedSpec:
    kind: str
    behaviors: tuple[_Behavior, ...] = ()
    prefix_rules: tuple[_PrefixRule, ...] = ()
    default: _Default | None = None


def build_generator(spec: dict, run_seed: int = 0) -> Generator:
    kind = spec.get("kind")
    if kind == SCRIPTED:
        script = _load(_ScriptedSpec, spec, "scripted generator")
        return ScriptedGenerator(
            behaviors=script.behaviors,
            prefix_rules=[(rule.prefix, rule) for rule in script.prefix_rules],
            default=script.default,
            run_seed=run_seed,
        )
    if kind == HTTP:
        return HttpGenerator(_load(BackendDescriptor, spec, "http backend"))
    raise ConfigError(f"unknown generator kind: {kind!r}")


@dataclass(frozen=True)
class _HashSpec:
    """A hash embedder has no settings: its spec holds only its kind."""

    kind: str


def build_embedder(spec: dict) -> Embedder:
    kind = spec.get("kind")
    if kind == HASH_EMBEDDER:
        _load(_HashSpec, spec, "hash embedder")
        return HashEmbedder()
    if kind == HTTP:
        return HttpEmbedder(_load(BackendDescriptor, spec, "http backend"))
    raise ConfigError(f"unknown embedder kind: {kind!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """A run's configuration. The gate and orchestrator defaults are those of
    RefinementConfig and OrchestratorSettings, which also own the range
    checks; the settings built from them are in settings."""

    task: str
    template: str | None = None
    seed: int = 0
    tau: float = RefinementConfig.tau
    samples: int = RefinementConfig.sample_count
    max_iterations: int = RefinementConfig.max_iterations
    metric: str = RefinementConfig.metric
    kl_alpha: float = RefinementConfig.kl_alpha
    stability_temperature: float = RefinementConfig.stability_temperature
    execution_temperature: float = OrchestratorSettings.execution_temperature
    reviewer_temperature: float = RefinementConfig.reviewer_temperature
    max_tokens: int = OrchestratorSettings.max_tokens
    reask_budget: int = OrchestratorSettings.reask_budget
    augmentation_retries: int = OrchestratorSettings.augmentation_retries
    target_granularity: float = OrchestratorSettings.target_granularity
    modules: dict[str, bool] = field(
        default_factory=lambda: {key: True for key in MODULE_KEYS}
    )
    reference_answer: str | None = None
    reference_match: str = EXACT
    reference_tolerance: float = DEFAULT_TOLERANCE
    generator: dict = field(default_factory=lambda: {"kind": SCRIPTED})
    embedder: dict = field(default_factory=lambda: {"kind": HASH_EMBEDDER})
    settings: OrchestratorSettings = field(init=False)

    def __post_init__(self):
        if not self.task.strip():
            raise ConfigError("config needs a non-empty task")
        if self.template is not None and self.template not in TEMPLATES:
            raise ConfigError(f"unknown template {self.template!r}:"
                              f" expected one of {sorted(TEMPLATES)}")
        _check_reference_fields(self.reference_answer, self.reference_match,
                                self.reference_tolerance, ConfigError)
        unknown = sorted(set(self.modules) - set(MODULE_KEYS))
        if unknown:
            raise ConfigError(f"unknown module toggles: {unknown}")
        modules = {key: self.modules.get(key, True) for key in MODULE_KEYS}
        object.__setattr__(self, "modules", modules)
        try:
            settings = OrchestratorSettings(
                refinement=RefinementConfig(
                    tau=self.tau,
                    sample_count=self.samples,
                    max_iterations=self.max_iterations,
                    reviewer_temperature=self.reviewer_temperature,
                    stability_temperature=self.stability_temperature,
                    metric=self.metric,
                    kl_alpha=self.kl_alpha,
                ),
                execution_temperature=self.execution_temperature,
                max_tokens=self.max_tokens,
                reask_budget=self.reask_budget,
                augmentation_retries=self.augmentation_retries,
                target_granularity=self.target_granularity,
                subtask_optimizer_enabled=modules["subtask_optimizer"],
                reviewer_enabled=modules["reviewer"],
                plan_updater_enabled=modules["plan_updater"],
                knowledge_enabled=modules["knowledge_generator"],
            )
        except ValueError as exc:
            # the message opens with its field, which is the config key but for samples
            field, _, rule = str(exc).partition(" ")
            key = {"sample_count": "samples"}.get(field, field)
            raise ConfigError(f"invalid config settings: {key} {rule}") from exc
        object.__setattr__(self, "settings", settings)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        return _load(cls, data, "config")

    def build_backends(self) -> tuple[Generator, Embedder]:
        return build_generator(self.generator, run_seed=self.seed), build_embedder(self.embedder)

    def header(self) -> dict:
        """The trace header: every field, defaults included, so that it says
        what the run used even after a default changes, and reads back
        through from_json_dict to this config."""
        return {f.name: _write_field(self, f.name) for f in fields(self) if f.init}
