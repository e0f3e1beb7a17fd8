"""Run configuration: one JSON document describing the task, the gate
parameters, the module toggles, and the backends, so a whole run is
reproducible from the file plus a seed."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

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

EXACT = "exact"
NUMERIC_MATCH = "numeric"

MODULE_KEYS = ("subtask_optimizer", "reviewer", "plan_updater", "knowledge_generator")


def _load(cls, data: dict, what: str):
    """An instance of the dataclass cls built from a JSON object. Every key
    must name an init field of cls, and every value must have the JSON type
    its field is annotated with: a float field takes an int too, and no field
    takes a boolean. Any mistake is a ConfigError, never a traceback."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    for name, value in data.items():
        # annotations are plain classes or unions of them
        allowed = typing.get_args(hints[name]) or (hints[name],)
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"{what} field {name!r} has invalid value {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _objects(spec: dict, key: str) -> list[dict]:
    entries = spec.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"scripted generator {key} must be a list of objects")
    return entries


def _behavior_from_config(entry: dict) -> ScriptedBehavior:
    """A scripted outcome table keyed by prompt text or fingerprint."""
    key = next((k for k in ("prompt", "prompt_fingerprint") if k in entry), None)
    if key is None:
        raise ConfigError("scripted behavior needs a prompt or prompt_fingerprint")
    if not isinstance(entry[key], str):
        raise ConfigError(f"scripted behavior {key} must be a string, got {entry[key]!r}")
    fingerprint = prompt_fingerprint(entry[key]) if key == "prompt" else entry[key]
    outcomes = entry.get("outcomes")
    if not outcomes:
        raise ConfigError("scripted behavior needs a non-empty outcomes list")
    try:
        return ScriptedBehavior(
            prompt_fingerprint=fingerprint,
            outcomes=tuple((str(t), float(p)) for t, p in outcomes),
            seed=int(entry.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scripted behavior: {exc}") from exc


def build_generator(spec: dict, run_seed: int = 0) -> Generator:
    kind = spec.get("kind")
    if kind == SCRIPTED:
        prefix_rules = []
        for entry in _objects(spec, "prefix_rules"):
            if not isinstance(entry.get("prefix"), str):
                raise ConfigError("prefix rule needs a string prefix")
            behavior = _behavior_from_config({"prompt": entry["prefix"], **entry})
            prefix_rules.append((entry["prefix"], behavior))
        default = spec.get("default")
        if default is not None:
            if not isinstance(default, dict):
                raise ConfigError("scripted generator default must be an object")
            # The default answers any unmatched prompt; draws are keyed by the
            # incoming prompt's fingerprint, so its own key is a placeholder.
            default = _behavior_from_config({"prompt_fingerprint": "default", **default})
        return ScriptedGenerator(
            behaviors=[_behavior_from_config(e) for e in _objects(spec, "behaviors")],
            prefix_rules=prefix_rules,
            default=default,
            run_seed=run_seed,
        )
    if kind == HTTP:
        return HttpGenerator(_load(BackendDescriptor, spec, "http backend"))
    raise ConfigError(f"unknown generator kind: {kind!r}")


def build_embedder(spec: dict) -> Embedder:
    kind = spec.get("kind")
    if kind == HASH_EMBEDDER:
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
    modules: dict = field(
        default_factory=lambda: {key: True for key in MODULE_KEYS}
    )
    reference_answer: str | None = None
    reference_match: str = EXACT
    reference_tolerance: float = 1e-6
    generator: dict = field(default_factory=lambda: {"kind": SCRIPTED})
    embedder: dict = field(default_factory=lambda: {"kind": HASH_EMBEDDER})
    settings: OrchestratorSettings = field(init=False)

    def __post_init__(self):
        if not self.task.strip():
            raise ConfigError("config needs a non-empty task")
        if self.reference_match not in (EXACT, NUMERIC_MATCH):
            raise ConfigError(
                f"reference_match must be '{EXACT}' or '{NUMERIC_MATCH}'"
            )
        if self.reference_tolerance < 0:
            raise ConfigError("reference_tolerance must be >= 0")
        modules = {key: True for key in MODULE_KEYS}
        for key, value in dict(self.modules).items():
            if key not in MODULE_KEYS:
                raise ConfigError(f"unknown module toggle: {key!r}")
            if not isinstance(value, bool):
                raise ConfigError(f"module toggle {key!r} must be true or false, got {value!r}")
            modules[key] = value
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
            raise ConfigError(f"invalid config settings: {exc}") from exc
        object.__setattr__(self, "settings", settings)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        return _load(cls, data, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_json_dict(data)

    def build_backends(self) -> tuple[Generator, Embedder]:
        return build_generator(self.generator, run_seed=self.seed), build_embedder(
            self.embedder
        )

    def header(self) -> dict:
        """Trace header fields identifying the run. The module toggles and
        the reference answer travel with the trace so any report computed
        later is attributable to the exact configuration."""
        header = {
            "task": self.task,
            "seed": self.seed,
            "tau": self.tau,
            "samples": self.samples,
            "metric": self.metric,
            "modules": dict(self.modules),
            "generator_kind": self.generator.get("kind"),
            "embedder_kind": self.embedder.get("kind"),
        }
        if self.reference_answer is not None:
            header["reference_answer"] = self.reference_answer
            header["reference_match"] = self.reference_match
            header["reference_tolerance"] = self.reference_tolerance
        return header
