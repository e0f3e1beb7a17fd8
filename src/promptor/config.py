"""Run configuration: one JSON document describing the task, the gate
parameters, the module toggles, and the backends, so a whole run is
reproducible from the file plus a seed."""

from __future__ import annotations

import json
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
from .orchestrator import KL, SEMANTIC, OrchestratorSettings, RefinementConfig

EXACT = "exact"
NUMERIC_MATCH = "numeric"

_MODULE_KEYS = ("subtask_optimizer", "reviewer", "plan_updater", "knowledge_generator")


def _behavior_from_config(entry: dict) -> ScriptedBehavior:
    """A scripted outcome table keyed by prompt text or fingerprint."""
    if "prompt" in entry:
        fingerprint = prompt_fingerprint(entry["prompt"])
    elif "prompt_fingerprint" in entry:
        fingerprint = entry["prompt_fingerprint"]
    else:
        raise ConfigError("scripted behavior needs a prompt or prompt_fingerprint")
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
        for entry in spec.get("prefix_rules", ()):
            if "prefix" not in entry:
                raise ConfigError("prefix rule needs a prefix key")
            behavior = _behavior_from_config({"prompt": entry["prefix"], **entry})
            prefix_rules.append((entry["prefix"], behavior))
        default = spec.get("default")
        if default is not None:
            # The default answers any unmatched prompt; draws are keyed by the
            # incoming prompt's fingerprint, so its own key is a placeholder.
            default = _behavior_from_config({"prompt_fingerprint": "default", **default})
        return ScriptedGenerator(
            behaviors=[_behavior_from_config(e) for e in spec.get("behaviors", ())],
            prefix_rules=prefix_rules,
            default=default,
            run_seed=run_seed,
        )
    if kind == HTTP:
        return HttpGenerator(_http_descriptor(spec))
    raise ConfigError(f"unknown generator kind: {kind!r}")


def build_embedder(spec: dict) -> Embedder:
    kind = spec.get("kind")
    if kind == HASH_EMBEDDER:
        return HashEmbedder()
    if kind == HTTP:
        return HttpEmbedder(_http_descriptor(spec))
    raise ConfigError(f"unknown embedder kind: {kind!r}")


def _http_descriptor(spec: dict) -> BackendDescriptor:
    try:
        return BackendDescriptor.from_json_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid http backend: {exc}") from exc


@dataclass(frozen=True)
class PipelineConfig:
    task: str
    template: str | None = None
    seed: int = 0
    tau: float = 0.7
    samples: int = 5
    max_iterations: int = 5
    metric: str = SEMANTIC
    kl_alpha: float = 1.0
    stability_temperature: float = 1.0
    execution_temperature: float = 1.0
    reviewer_temperature: float = 0.0
    max_tokens: int = 1024
    reask_budget: int = 2
    augmentation_retries: int = 2
    target_granularity: float = 2.0
    modules: dict = field(
        default_factory=lambda: {key: True for key in _MODULE_KEYS}
    )
    reference_answer: str | None = None
    reference_match: str = EXACT
    reference_tolerance: float = 1e-6
    generator: dict = field(default_factory=lambda: {"kind": SCRIPTED})
    embedder: dict = field(default_factory=lambda: {"kind": HASH_EMBEDDER})

    _FIELD_TYPES = (
        ("task", str), ("template", (str, type(None))), ("seed", int),
        ("tau", (int, float)), ("samples", int),
        ("max_iterations", int), ("metric", str),
        ("kl_alpha", (int, float)), ("stability_temperature", (int, float)),
        ("execution_temperature", (int, float)),
        ("reviewer_temperature", (int, float)), ("max_tokens", int),
        ("reask_budget", int), ("augmentation_retries", int),
        ("target_granularity", (int, float)), ("modules", dict),
        ("reference_answer", (str, type(None))), ("reference_match", str),
        ("reference_tolerance", (int, float)), ("generator", dict),
        ("embedder", dict),
    )

    def __post_init__(self):
        # JSON configs arrive untyped; reject wrong types here so every
        # malformed file surfaces as a ConfigError, never a traceback.
        for name, expected in self._FIELD_TYPES:
            value = getattr(self, name)
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigError(f"config field {name!r} has invalid value {value!r}")
        if not self.task.strip():
            raise ConfigError("config needs a non-empty task")
        if self.metric not in (SEMANTIC, KL):
            raise ConfigError(f"metric must be '{SEMANTIC}' or '{KL}'")
        if self.reference_match not in (EXACT, NUMERIC_MATCH):
            raise ConfigError(
                f"reference_match must be '{EXACT}' or '{NUMERIC_MATCH}'"
            )
        if self.reference_tolerance < 0:
            raise ConfigError("reference_tolerance must be >= 0")
        modules = {key: True for key in _MODULE_KEYS}
        for key, value in dict(self.modules).items():
            if key not in _MODULE_KEYS:
                raise ConfigError(f"unknown module toggle: {key!r}")
            modules[key] = bool(value)
        object.__setattr__(self, "modules", modules)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "task" not in data:
            raise ConfigError("config needs a task")
        try:
            return cls(**data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc

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

    def refinement_config(self) -> RefinementConfig:
        try:
            return RefinementConfig(
                tau=self.tau,
                sample_count=self.samples,
                max_iterations=self.max_iterations,
                reviewer_temperature=self.reviewer_temperature,
                stability_temperature=self.stability_temperature,
                metric=self.metric,
                kl_alpha=self.kl_alpha,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid refinement settings: {exc}") from exc

    def orchestrator_settings(self, disabled: tuple[str, ...] = ()) -> OrchestratorSettings:
        """Module toggles from the config, minus any disabled on top (CLI
        --disable flags use the kebab-case module names)."""
        toggles = dict(self.modules)
        alias = {
            "subtask-optimizer": "subtask_optimizer",
            "reviewer": "reviewer",
            "plan-updater": "plan_updater",
            "knowledge-generator": "knowledge_generator",
        }
        for name in disabled:
            if name not in alias:
                raise ConfigError(f"unknown module to disable: {name!r}")
            toggles[alias[name]] = False
        try:
            return OrchestratorSettings(
                refinement=self.refinement_config(),
                execution_temperature=self.execution_temperature,
                max_tokens=self.max_tokens,
                reask_budget=self.reask_budget,
                augmentation_retries=self.augmentation_retries,
                target_granularity=self.target_granularity,
                subtask_optimizer_enabled=toggles["subtask_optimizer"],
                reviewer_enabled=toggles["reviewer"],
                plan_updater_enabled=toggles["plan_updater"],
                knowledge_enabled=toggles["knowledge_generator"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid orchestrator settings: {exc}") from exc

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
