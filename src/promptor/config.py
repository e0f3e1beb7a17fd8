"""Run configuration: one JSON document describing the task, the gate
parameters, the module toggles, and the backends, so a whole run is
reproducible from the file plus a seed."""

from __future__ import annotations

import json
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
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
from .deviation import AgentOutputModel
from .errors import ConfigError
from .orchestrator import OrchestratorSettings, RefinementConfig

EXACT = "exact"
NUMERIC_MATCH = "numeric"

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


def _load(cls, data: dict, what: str, path: str = ""):
    """An instance of the dataclass cls built from the JSON object at path
    in a what document. Every key must name an init field of cls, and every
    value must match its field's annotation (see _value). Any mistake is a
    ConfigError naming the field path, never a traceback."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ConfigError(f"unknown {what} keys{' in ' + path if path else ''}: {unknown}")
    values = {
        name: _value(hints[name], value, what, f"{path}.{name}" if path else name)
        for name, value in data.items()
    }
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}{' ' + path if path else ''}: {exc}") from exc


def _value(hint, value, what: str, path: str):
    """value checked against the annotation hint: a dataclass is a JSON
    object, tuple[T, ...] and tuple[A, B] are arrays, dict[str, T] is an
    object, X | None also takes null, and a plain class takes its instances.
    A float takes an int too, and only a bool takes a boolean."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint) and isinstance(value, dict):
        return _load(hint, value, what, path)
    if origin is tuple and isinstance(value, list):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(
                _value(item, v, what, f"{path}[{i}]")
                for i, (item, v) in enumerate(zip(items, value))
            )
    elif origin is dict and isinstance(value, dict):
        return {k: _value(args[1], v, what, f"{path}.{k}") for k, v in value.items()}
    elif origin in (typing.Union, types.UnionType):
        # every union in a config is X | None
        return None if value is None else _value(args[0], value, what, path)
    elif origin is None:
        allowed = (float, int) if hint is float else (hint,)
        if isinstance(value, allowed) and isinstance(value, bool) == (hint is bool):
            return value
    raise ConfigError(f"{what} field {path} has invalid value {value!r}")


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
    modules: dict[str, bool] = field(
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
            raise ConfigError(f"invalid config settings: {exc}") from exc
        object.__setattr__(self, "settings", settings)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        return _load(cls, data, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json_dict(_read_json(path, "config"))

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


@dataclass(frozen=True)
class _OutputModel:
    """One agent's output model as a simulation config writes it:
    {"kind": "gaussian", "mean", "variance"} or {"kind": "uniform", "low",
    "high"}; the model built from it is in model."""

    kind: str
    mean: float | None = None
    variance: float | None = None
    low: float | None = None
    high: float | None = None
    model: AgentOutputModel = field(init=False)

    def __post_init__(self):
        gaussian, uniform = (self.mean, self.variance), (self.low, self.high)
        if self.kind == "gaussian" and None not in gaussian and uniform == (None, None):
            model = AgentOutputModel.gaussian(*gaussian)
        elif self.kind == "uniform" and None not in uniform and gaussian == (None, None):
            model = AgentOutputModel.uniform(*uniform)
        else:
            raise ValueError(
                "an output model is a gaussian with mean and variance"
                f" or a uniform with low and high, got kind {self.kind!r}"
            )
        object.__setattr__(self, "model", model)


@dataclass(frozen=True)
class SimulationConfig:
    """A simulate-bound run: the aggregation weights u and v, one output
    model per agent, the epsilon grid, and the trial count and seed of the
    Monte-Carlo draw. Their lengths and ranges are checked by the draw."""

    u: tuple[float, ...]
    v: tuple[float, ...]
    models: tuple[_OutputModel, ...]
    epsilons: tuple[float, ...]
    trials: int = 100_000
    seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulationConfig":
        return _load(cls, _read_json(path, "simulation config"), "simulation config")
