import dataclasses
import json
import re
from pathlib import Path

import pytest

from promptor.agent_prompts import TEMPLATES
from promptor.backends import (
    BackendDescriptor,
    GenerationRequest,
    HashEmbedder,
    HttpEmbedder,
    HttpGenerator,
    ScriptedGenerator,
)
from promptor.config import PipelineConfig, build_embedder, build_generator
from promptor.errors import ConfigError
from promptor.orchestrator import (
    MAX_SAMPLE_COUNT,
    SEMANTIC,
    OrchestratorSettings,
    RefinementConfig,
)

HTTP_SPEC = {"kind": "http", "endpoint_url": "http://localhost:1", "model_name": "m"}


class TestPipelineConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = PipelineConfig.from_json_dict({"task": "add the numbers"})
        assert cfg.tau == 0.7
        assert cfg.samples == 5
        assert cfg.metric == SEMANTIC
        assert cfg.template is None
        assert cfg.modules == {
            "subtask_optimizer": True,
            "reviewer": True,
            "plan_updater": True,
            "knowledge_generator": True,
        }
        assert cfg.generator == {"kind": "scripted"}
        assert cfg.embedder == {"kind": "hash-embedder"}
        assert cfg.reference_answer is None
        # the config's defaults are the settings' own defaults
        assert cfg.settings == OrchestratorSettings()

    def test_task_is_required(self):
        with pytest.raises(ConfigError, match="task"):
            PipelineConfig.from_json_dict({"tau": 0.9})
        with pytest.raises(ConfigError, match="task"):
            PipelineConfig.from_json_dict({"task": "   "})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="treshold"):
            PipelineConfig.from_json_dict({"task": "t", "treshold": 0.7})

    @pytest.mark.parametrize("field,value", [
        ("task", [1, 2]),
        ("tau", "0.9"),
        ("seed", True),
        ("samples", "five"),
        ("modules", ["reviewer"]),
        ("reference_answer", 87),
        ("generator", "scripted"),
        ("template", 3),
        ("seed", 1.5),
        ("samples", 5.5),
        ("max_iterations", 2.0),
        ("max_tokens", 512.5),
        ("reask_budget", 1.5),
        ("augmentation_retries", 0.5),
    ])
    def test_wrong_typed_fields_rejected(self, field, value):
        # JSON accepts any shape; every mistake must still exit as ConfigError
        with pytest.raises(ConfigError, match=field):
            PipelineConfig.from_json_dict({"task": "t", field: value})

    def test_unknown_module_toggle_rejected(self):
        with pytest.raises(ConfigError, match="module"):
            PipelineConfig.from_json_dict({"task": "t", "modules": {"judge": False}})

    def test_partial_module_dict_fills_in_true(self):
        cfg = PipelineConfig.from_json_dict(
            {"task": "t", "modules": {"reviewer": False}}
        )
        assert cfg.modules["reviewer"] is False
        assert cfg.modules["plan_updater"] is True

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [False]])
    def test_module_toggles_must_be_booleans(self, value):
        # bool("false") is True, so a string toggle once left the module on
        with pytest.raises(ConfigError, match="reviewer"):
            PipelineConfig.from_json_dict({"task": "t", "modules": {"reviewer": value}})

    def test_invalid_metric_rejected(self):
        with pytest.raises(ConfigError, match="metric"):
            PipelineConfig.from_json_dict({"task": "t", "metric": "cosine"})

    def test_invalid_reference_match_rejected(self):
        with pytest.raises(ConfigError, match="reference_match"):
            PipelineConfig.from_json_dict({"task": "t", "reference_match": "fuzzy"})

    @pytest.mark.parametrize("field,value,message", [
        ("tau", 1.5, "tau"),
        ("max_iterations", 0, "max_iterations"),
        ("kl_alpha", 0, "kl_alpha"),
        ("stability_temperature", -1, "stability_temperature"),
        ("execution_temperature", -0.5, "execution_temperature"),
        ("reask_budget", -1, "reask_budget"),
        ("target_granularity", 0, "target_granularity"),
        ("max_tokens", 0, "max_tokens"),
        ("template", "no-such-template", "template"),
    ])
    def test_out_of_range_gate_rejected_at_load(self, field, value, message):
        # range checks live in RefinementConfig and OrchestratorSettings; the
        # config builds both when it is loaded and surfaces their errors
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_json_dict({"task": "t", field: value})

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_every_interaction_template_is_accepted(self, template):
        cfg = PipelineConfig.from_json_dict({"task": "t", "template": template})
        assert cfg.template == template

    def test_samples_have_an_upper_bound(self):
        # validation only: nothing is ever sampled at this size
        assert RefinementConfig(sample_count=MAX_SAMPLE_COUNT).sample_count == MAX_SAMPLE_COUNT
        with pytest.raises(ValueError, match="sample_count"):
            RefinementConfig(sample_count=MAX_SAMPLE_COUNT + 1)
        # the config error names the config key, not the settings field
        with pytest.raises(ConfigError, match="samples must"):
            PipelineConfig.from_json_dict({"task": "t", "samples": MAX_SAMPLE_COUNT + 1})


class TestOrchestratorSettings:
    def test_toggles_flow_through(self):
        cfg = PipelineConfig.from_json_dict(
            {"task": "t", "modules": {"knowledge_generator": False}}
        )
        settings = cfg.settings
        assert settings.knowledge_enabled is False
        assert settings.reviewer_enabled is True

    def test_refinement_settings_flow_through(self):
        cfg = PipelineConfig.from_json_dict(
            {"task": "t", "tau": 0.9, "samples": 7, "max_iterations": 3}
        )
        refinement = cfg.settings.refinement
        assert refinement.tau == 0.9
        assert refinement.sample_count == 7
        assert refinement.max_iterations == 3


class TestBuildBackends:
    def test_scripted_generator_from_config(self):
        gen = build_generator(
            {
                "kind": "scripted",
                "behaviors": [{"prompt": "say hi", "outcomes": [["hi", 1.0]]}],
                "prefix_rules": [
                    {"prefix": "### Planner\n", "outcomes": [["{}", 1.0]]}
                ],
                # a default needs no prompt key; it answers whatever is unmatched
                "default": {"outcomes": [["?", 1.0]]},
            },
            run_seed=9,
        )
        assert isinstance(gen, ScriptedGenerator)
        assert gen.run_seed == 9
        req = GenerationRequest(prompt_text="say hi", sample_count=1)
        assert gen.generate(req) == ["hi"]
        planner = GenerationRequest(prompt_text="### Planner\nanything", sample_count=1)
        assert gen.generate(planner) == ["{}"]
        fallback = GenerationRequest(prompt_text="unmatched", sample_count=1)
        assert gen.generate(fallback) == ["?"]

    def test_scripted_behavior_needs_prompt_and_outcomes(self):
        with pytest.raises(ConfigError, match="prompt"):
            build_generator({"kind": "scripted", "behaviors": [{"outcomes": [["x", 1.0]]}]})
        with pytest.raises(ConfigError, match="outcomes"):
            build_generator({"kind": "scripted", "behaviors": [{"prompt": "p"}]})
        # outcome weights must still sum to one
        with pytest.raises(ConfigError, match="behavior"):
            build_generator(
                {"kind": "scripted",
                 "behaviors": [{"prompt": "p", "outcomes": [["x", 0.4]]}]}
            )

    def test_prefix_rule_needs_prefix(self):
        with pytest.raises(ConfigError, match="prefix"):
            build_generator(
                {"kind": "scripted",
                 "prefix_rules": [{"outcomes": [["x", 1.0]]}]}
            )

    @pytest.mark.parametrize("entries", [
        {"behaviors": [{"prompt": 5, "outcomes": [["a", 1.0]]}]},
        {"behaviors": [{"prompt_fingerprint": ["f"], "outcomes": [["a", 1.0]]}]},
        {"behaviors": [5]},
        {"behaviors": "abc"},
        {"behaviors": {"prompt": "p", "outcomes": [["a", 1.0]]}},
        {"prefix_rules": [{"prefix": 5, "outcomes": [["a", 1.0]]}]},
        {"prefix_rules": ["### Planner"]},
        {"prefix_rules": "### Planner"},
        {"default": [["a", 1.0]]},
        {"behaviors": [{"prompt": "p", "seed": "5", "outcomes": [["a", 1.0]]}]},
        {"behaviors": [{"prompt": "p", "seed": 2.7, "outcomes": [["a", 1.0]]}]},
        {"behaviors": [{"prompt": "p", "outcomes": [[7, True]]}]},
        {"behaviors": [{"prompt": "p", "outcomes": [["a", "1.0"]]}]},
        {"behaviors": [{"prompt": "p", "outcomes": [["a", 1.0, 0]]}]},
        {"behaviors": [{"prompt": "p", "prompt_fingerprint": "f", "outcomes": [["a", 1.0]]}]},
        {"behaviors": [{"prompt": "p", "weight": 1, "outcomes": [["a", 1.0]]}]},
        {"prefix_rules": [{"prefix": "### Planner", "prompt": "p", "outcomes": [["a", 1.0]]}]},
        {"default": {"prompt": "p", "outcomes": [["a", 1.0]]}},
    ])
    def test_malformed_scripted_spec_rejected(self, entries):
        with pytest.raises(ConfigError, match="behavior|prefix|default"):
            build_generator({"kind": "scripted", **entries})

    def test_http_backends(self):
        assert isinstance(build_generator(HTTP_SPEC), HttpGenerator)
        assert isinstance(build_embedder(HTTP_SPEC), HttpEmbedder)
        with pytest.raises(ConfigError, match="http backend"):
            build_generator({"kind": "http", "model_name": "m"})

    def test_http_spec_loads_every_key(self):
        gen = build_generator({**HTTP_SPEC, "max_retries": 5})
        assert gen.descriptor == BackendDescriptor(
            kind="http", endpoint_url="http://localhost:1", model_name="m",
            timeout=30.0, max_retries=5, max_inflight=4,
        )
        # a float field takes a JSON integer
        emb = build_embedder({**HTTP_SPEC, "timeout": 5, "max_inflight": 2})
        assert emb.descriptor.timeout == 5 and emb.descriptor.max_inflight == 2

    @pytest.mark.parametrize("build", [build_generator, build_embedder])
    @pytest.mark.parametrize("key,value", [
        ("max_retries", 2.7),
        ("max_retries", "5"),
        ("timeout", True),
        ("endpoint_url", 5),
        ("max_inflight", True),
        ("max_inflght", 8),
        # the bearer token comes only from the environment, so no trace
        # header, which holds the spec, can carry it
        ("api_key", "sk-secret"),
    ])
    def test_http_spec_keys_are_typed(self, build, key, value):
        with pytest.raises(ConfigError, match=key):
            build({**HTTP_SPEC, key: value})

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigError, match="generator"):
            build_generator({"kind": "grpc"})
        with pytest.raises(ConfigError, match="embedder"):
            build_embedder({"kind": "grpc"})

    def test_hash_embedder(self):
        assert isinstance(build_embedder({"kind": "hash-embedder"}), HashEmbedder)

    def test_build_backends_uses_run_seed(self):
        cfg = PipelineConfig.from_json_dict({"task": "t", "seed": 5})
        generator, embedder = cfg.build_backends()
        assert generator.run_seed == 5
        assert isinstance(embedder, HashEmbedder)


class TestHeader:
    def test_header_identifies_the_run(self):
        cfg = PipelineConfig.from_json_dict(
            {"task": "t", "seed": 3, "tau": 0.8, "metric": "kl",
             "modules": {"reviewer": False}}
        )
        header = cfg.header()
        assert header["task"] == "t"
        assert header["seed"] == 3
        assert header["tau"] == 0.8
        assert header["metric"] == "kl"
        assert header["modules"]["reviewer"] is False
        assert header["generator"] == {"kind": "scripted"}
        assert header["reference_answer"] is None

    def test_header_carries_reference_when_configured(self):
        cfg = PipelineConfig.from_json_dict(
            {"task": "t", "reference_answer": "42",
             "reference_match": "numeric", "reference_tolerance": 0.5}
        )
        header = cfg.header()
        assert header["reference_answer"] == "42"
        assert header["reference_match"] == "numeric"
        assert header["reference_tolerance"] == 0.5

    @pytest.mark.parametrize("data", [
        {"task": "t"},
        {"task": "t", "seed": 3, "tau": 0.8, "samples": 7, "max_iterations": 2, "metric": "kl",
         "kl_alpha": 0.5, "stability_temperature": 1, "execution_temperature": 0.25,
         "reviewer_temperature": 0.0, "max_tokens": 64, "reask_budget": 0,
         "augmentation_retries": 3, "target_granularity": 2.5, "template": "review-loop",
         "modules": {"plan_updater": False}, "reference_answer": "42",
         "reference_match": "numeric", "reference_tolerance": 0.5,
         "generator": {"kind": "scripted", "default": {"outcomes": [["42", 1.0]]}},
         "embedder": HTTP_SPEC},
    ], ids=["defaults", "every-field"])
    def test_header_is_the_whole_config(self, data):
        # every field, defaults included, and nothing else: the header reads
        # back to the config that wrote it
        cfg = PipelineConfig.from_json_dict(data)
        header = json.loads(json.dumps(cfg.header()))
        assert list(header) == [f.name for f in dataclasses.fields(PipelineConfig) if f.init]
        assert PipelineConfig.from_json_dict(header) == cfg


def test_readme_lists_every_config_key_with_its_default():
    # the table under "Pipeline config": one row per key, in field order,
    # with the default as JSON, or "required"
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `(\w+)` \| (required|`[^`]*`) \|", line).groups()
            for line in table.splitlines()]
    defaults = [(f.name, "required" if f.default is f.default_factory is dataclasses.MISSING
                 else f.default if f.default_factory is dataclasses.MISSING
                 else f.default_factory()) for f in dataclasses.fields(PipelineConfig) if f.init]
    assert [(name, default if default == "required" else json.loads(default.strip("`")))
            for name, default in rows] == defaults
