import email.utils
import hashlib
import logging
import math
import socket
import threading
from datetime import datetime, timedelta, timezone

import pytest

from promptor.backends import (
    AUTH_ENV_VAR,
    HASH_EMBEDDER_DIM,
    HASH_EMBEDDER_OFFSET,
    BackendDescriptor,
    Embedder,
    GenerationRequest,
    Generator,
    HashEmbedder,
    HttpEmbedder,
    HttpGenerator,
    ScriptedBehavior,
    ScriptedGenerator,
    chat_completions_body,
    embeddings_body,
    prompt_fingerprint,
    wire_encode,
)
from promptor.errors import BackendError, TransportError, UnknownPromptError
from promptor.metrics import cosine_distance

from .stub_server import StubApiServer, StubConfig

PROMPT = "## Role\nYou are an agent."


def scripted(outcomes, seed=0, run_seed=0, **kwargs) -> ScriptedGenerator:
    behavior = ScriptedBehavior.for_prompt(PROMPT, outcomes, seed=seed)
    return ScriptedGenerator(behaviors=[behavior], run_seed=run_seed, **kwargs)


def http_descriptor(url: str, **kwargs) -> BackendDescriptor:
    defaults = dict(model_name="test-model", timeout=5.0, max_retries=2, max_inflight=4)
    defaults.update(kwargs)
    return BackendDescriptor(kind="http", endpoint_url=url, **defaults)


# -- request validation -----------------------------------------------------------


def test_generation_request_validation():
    with pytest.raises(ValueError):
        GenerationRequest(prompt_text="")
    with pytest.raises(ValueError):
        GenerationRequest(prompt_text="x", temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationRequest(prompt_text="x", sample_count=0)
    with pytest.raises(ValueError):
        GenerationRequest(prompt_text="x", max_tokens=0)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        BackendDescriptor(kind="http")  # needs endpoint + model
    with pytest.raises(ValueError):
        BackendDescriptor(kind="grpc")
    with pytest.raises(ValueError):
        http_descriptor("http://localhost:1", max_inflight=0)


@pytest.mark.parametrize("url", [
    "localhost:8000/v1", "ftp://h/v1", "http:///v1", "http://user:pw@h/v1",
    "http://h/v1?x=1", "http://h/v1#x", "http://h:0/v1", "http://h:99999/v1",
    "http://h:port/v1", "http://\u00e9.example/v1",
])
def test_descriptor_rejects_an_endpoint_not_of_the_form_scheme_host_port_path(url):
    with pytest.raises(ValueError):
        http_descriptor(url)


@pytest.mark.parametrize("url", ["http://h", "https://h:8443/v1/", "http://[::1]:8000/v1"])
def test_descriptor_accepts_an_http_or_https_endpoint(url):
    assert http_descriptor(url).endpoint_url == url


def test_behavior_validation():
    with pytest.raises(ValueError):
        ScriptedBehavior.for_prompt(PROMPT, [])
    with pytest.raises(ValueError):
        ScriptedBehavior.for_prompt(PROMPT, [("a", 0.5), ("b", 0.6)])
    with pytest.raises(ValueError):
        ScriptedBehavior.for_prompt(PROMPT, [("a", 1.5), ("b", -0.5)])


# -- scripted generator -----------------------------------------------------------


def test_point_mass_returns_identical_outputs():
    gen = scripted([("the answer", 1.0)])
    outputs = gen.generate(GenerationRequest(prompt_text=PROMPT, sample_count=3))
    assert outputs == ["the answer"] * 3


def test_two_outcome_empirical_frequency():
    gen = scripted([("A", 0.5), ("B", 0.5)], seed=1, run_seed=7)
    outputs = gen.generate(GenerationRequest(prompt_text=PROMPT, sample_count=10_000))
    freq_a = outputs.count("A") / len(outputs)
    assert abs(freq_a - 0.5) <= 0.02


def test_a_draw_past_the_last_cumulative_weight_picks_the_last_outcome():
    # the weights may sum to a hair below 1, so a draw can pass every
    # cumulative weight
    behavior = ScriptedBehavior.for_prompt(PROMPT, [("A", 0.5), ("B", 0.4999999999)])
    assert ScriptedGenerator._pick(behavior, 0.49) == "A"
    assert ScriptedGenerator._pick(behavior, 0.99999999995) == "B"


def test_scripted_determinism_across_instances():
    outcomes = [("A", 0.3), ("B", 0.7)]
    first = scripted(outcomes, run_seed=5).generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=50)
    )
    second = scripted(outcomes, run_seed=5).generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=50)
    )
    assert first == second
    different = scripted(outcomes, run_seed=6).generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=50)
    )
    assert different != first


def test_call_index_continues_across_calls():
    outcomes = [("A", 0.5), ("B", 0.5)]
    split_gen = scripted(outcomes, run_seed=3)
    part1 = split_gen.generate(GenerationRequest(prompt_text=PROMPT, sample_count=5))
    part2 = split_gen.generate(GenerationRequest(prompt_text=PROMPT, sample_count=5))
    whole = scripted(outcomes, run_seed=3).generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=10)
    )
    assert part1 + part2 == whole


def test_call_index_is_kept_per_subtask():
    outcomes = [("A", 0.5), ("B", 0.5)]
    ask = lambda gen, sid: gen.generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=10, subtask_id=sid))
    shared = scripted(outcomes, run_seed=3)
    first_b = ask(shared, "b")
    first_a, second_a = ask(shared, "a"), ask(shared, "a")
    # a subtask's draws do not depend on another subtask's calls
    alone = scripted(outcomes, run_seed=3)
    assert ask(alone, "a") == first_a and ask(alone, "a") == second_a
    assert first_b == first_a != second_a


def test_temperature_zero_is_argmax():
    gen = scripted([("minor", 0.4), ("major", 0.6)])
    outputs = gen.generate(
        GenerationRequest(prompt_text=PROMPT, temperature=0.0, sample_count=5)
    )
    assert outputs == ["major"] * 5


def test_lookup_order_exact_then_longest_prefix_then_default():
    exact = ScriptedBehavior.for_prompt(PROMPT, [("exact", 1.0)])
    short_rule = ("## Role", ScriptedBehavior.for_prompt("p1", [("short-prefix", 1.0)]))
    long_rule = ("## Role\nYou are", ScriptedBehavior.for_prompt("p2", [("long-prefix", 1.0)]))
    default = ScriptedBehavior.for_prompt("p3", [("default", 1.0)])
    gen = ScriptedGenerator(
        behaviors=[exact], prefix_rules=[short_rule, long_rule], default=default
    )
    ask = lambda text: gen.generate(GenerationRequest(prompt_text=text))[0]
    assert ask(PROMPT) == "exact"
    assert ask("## Role\nYou are someone else.") == "long-prefix"
    assert ask("## Role\nI changed the wording.") == "short-prefix"
    assert ask("totally unrelated") == "default"


def test_unknown_prompt_raises_without_default():
    gen = scripted([("x", 1.0)])
    with pytest.raises(UnknownPromptError):
        gen.generate(GenerationRequest(prompt_text="never registered"))


def test_concurrent_sampling_is_interleaving_independent():
    outcomes = [("A", 0.5), ("B", 0.5)]
    gen = scripted(outcomes, run_seed=11)
    results = []
    lock = threading.Lock()

    def worker():
        out = gen.generate(GenerationRequest(prompt_text=PROMPT, sample_count=1))
        with lock:
            results.extend(out)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    sequential = scripted(outcomes, run_seed=11).generate(
        GenerationRequest(prompt_text=PROMPT, sample_count=8)
    )
    # the multiset of drawn outcomes cannot depend on thread interleaving
    assert sorted(results) == sorted(sequential)


def test_scripted_satisfies_protocol():
    assert isinstance(scripted([("x", 1.0)]), Generator)


# -- hash embedder ----------------------------------------------------------------


def test_hash_embedder_identical_texts_distance_zero():
    embedder = HashEmbedder()
    a, b = embedder.embed(["same text here", "same text here"])
    assert a == b
    assert cosine_distance(a, b) == 0.0


def test_hash_embedder_shape_and_norm():
    (vec,) = HashEmbedder().embed(["hello world"])
    assert vec.dim == HASH_EMBEDDER_DIM
    assert math.hypot(*vec.components) > 0


def independent_hash_vector(text: str) -> list[float]:
    # separately coded bucket-count construction
    counts = [0.0] * 64
    for token in text.lower().split():
        bucket = int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big") % 64
        counts[bucket] += 1.0
    return [c + HASH_EMBEDDER_OFFSET for c in counts]


def test_hash_embedder_matches_independent_oracle():
    import math

    texts = ["alpha beta beta", "gamma delta epsilon zeta"]
    vectors = HashEmbedder().embed(texts)
    for text, vec in zip(texts, vectors):
        assert list(vec.components) == independent_hash_vector(text)
    expected = [independent_hash_vector(t) for t in texts]
    dot = sum(a * b for a, b in zip(expected[0], expected[1]))
    norms = [math.sqrt(sum(a * a for a in v)) for v in expected]
    oracle_distance = 1.0 - dot / (norms[0] * norms[1])
    assert abs(cosine_distance(vectors[0], vectors[1]) - oracle_distance) <= 1e-12


def test_hash_embedder_cached_buckets_match_oracle():
    # repeated tokens within and across calls hit the bucket cache
    texts = ["Alpha beta beta", "beta ALPHA gamma gamma gamma", "alpha beta beta"]
    embedder = HashEmbedder()
    for _ in range(2):
        vectors = embedder.embed(texts)
        assert [list(v.components) for v in vectors] == [
            independent_hash_vector(t) for t in texts
        ]
    assert vectors[0] == vectors[2]


# a text with repeated tokens, a one-token text and a 100-token text
ONE_ARRAY_TEXTS = ["Beta alpha BETA beta gamma alpha", "solo",
                   " ".join(f"t{i % 37}" for i in range(100))]


@pytest.mark.parametrize("texts", [[t] for t in ONE_ARRAY_TEXTS] + [ONE_ARRAY_TEXTS])
def test_hash_embedder_matches_the_element_by_element_construction(texts):
    # the counts of all texts come from one array; each component must
    # still be the Python float a per-text count plus the offset gives
    vectors = HashEmbedder().embed(texts)
    for text, vec in zip(texts, vectors, strict=True):
        assert [c.hex() for c in vec.components] == [
            c.hex() for c in independent_hash_vector(text)]
        assert all(type(c) is float for c in vec.components)


def test_hash_embedder_rejects_empty_input():
    with pytest.raises(ValueError):
        HashEmbedder().embed([])
    with pytest.raises(ValueError):
        HashEmbedder().embed(["ok", "   "])


def test_hash_embedder_satisfies_protocol():
    assert isinstance(HashEmbedder(), Embedder)


# -- http backends ----------------------------------------------------------------


def test_http_generator_wire_format(monkeypatch):
    monkeypatch.setenv(AUTH_ENV_VAR, "sk-test-123")
    with StubApiServer(StubConfig(canned_text="pong")) as server:
        gen = HttpGenerator(http_descriptor(server.base_url))
        outputs = gen.generate(
            GenerationRequest(prompt_text="ping prompt", temperature=0.5, sample_count=2)
        )
        assert outputs == ["pong", "pong"]
        (record,) = server.records
        assert record.path == "/chat/completions"
        expected = (
            '{"model":"test-model",'
            '"messages":[{"role":"user","content":"ping prompt"}],'
            '"temperature":0.5,"n":2,"max_tokens":1024}'
        ).encode()
        assert record.body == expected
        assert record.headers["Authorization"] == "Bearer sk-test-123"
        assert record.headers["Content-Type"] == "application/json"


def test_http_generator_no_auth_header_without_env(monkeypatch):
    monkeypatch.delenv(AUTH_ENV_VAR, raising=False)
    with StubApiServer() as server:
        HttpGenerator(http_descriptor(server.base_url)).generate(
            GenerationRequest(prompt_text="x")
        )
        assert "Authorization" not in server.records[0].headers


def test_http_generator_retries_then_succeeds():
    with StubApiServer(StubConfig(fail_first=2)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=2))
        outputs = gen.generate(GenerationRequest(prompt_text="x"))
        assert outputs == ["canned completion"]
        assert server.request_count == 3


def test_http_generator_exhausts_retries():
    with StubApiServer(StubConfig(always_fail=True)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=1))
        with pytest.raises(TransportError):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 2  # initial try + 1 retry


def test_http_generator_does_not_retry_a_client_error():
    with StubApiServer(StubConfig(always_fail=True, fail_status=400)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=3))
        with pytest.raises(TransportError, match="HTTP 400"):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 1


def failed_attempts(caplog) -> int:
    return sum("failed" in r.getMessage() for r in caplog.records
               if r.name == "promptor.backends")


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_http_generator_retries_a_refused_connection(caplog):
    gen = HttpGenerator(http_descriptor(f"http://127.0.0.1:{closed_port()}", max_retries=2))
    with caplog.at_level(logging.WARNING, logger="promptor.backends"):
        with pytest.raises(TransportError, match="after 3 attempts"):
            gen.generate(GenerationRequest(prompt_text="x"))
    assert failed_attempts(caplog) == 3


def test_http_generator_retries_a_read_timeout(caplog):
    with StubApiServer(StubConfig(delay=0.3)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, timeout=0.1, max_retries=1))
        with caplog.at_level(logging.WARNING, logger="promptor.backends"):
            with pytest.raises(TransportError, match="after 2 attempts: timed out"):
                gen.generate(GenerationRequest(prompt_text="x"))
    # counted once the stub has finished serving both stalled requests
    assert server.request_count == 2
    assert failed_attempts(caplog) == 2


def test_http_embedder_retries_a_hang_up_without_reply(caplog):
    with StubApiServer(StubConfig(close_without_reply=True)) as server:
        embedder = HttpEmbedder(http_descriptor(server.base_url, max_retries=2))
        with caplog.at_level(logging.WARNING, logger="promptor.backends"):
            with pytest.raises(TransportError, match="after 3 attempts"):
                embedder.embed(["a"])
        assert server.request_count == 3
    assert failed_attempts(caplog) == 3


def test_endpoint_path_prefixes_every_request():
    with StubApiServer() as server:
        HttpGenerator(http_descriptor(server.base_url + "/v1/")).generate(
            GenerationRequest(prompt_text="x"))
        assert [r.path for r in server.records] == ["/v1/chat/completions"]


def test_http_generator_does_not_follow_or_retry_a_redirect():
    with StubApiServer(StubConfig(always_fail=True, fail_status=307)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=3))
        with pytest.raises(TransportError, match="rejected the request: HTTP 307"):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 1


@pytest.mark.parametrize("status", [408, 429])
def test_http_generator_retries_timeout_and_rate_limit(status):
    with StubApiServer(StubConfig(fail_first=1, fail_status=status)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=2))
        assert gen.generate(GenerationRequest(prompt_text="x")) == ["canned completion"]
        assert server.request_count == 2


def in_ten_seconds() -> str:
    when = datetime.now(timezone.utc) + timedelta(seconds=10)
    return email.utils.format_datetime(when, usegmt=True)


@pytest.mark.parametrize("status, retry_after, timeout, expected", [
    (503, "2", 5.0, (2.0, 2.0)),
    # an HTTP-date has whole seconds, so the wait is a little under 10 s
    (429, in_ten_seconds, 60.0, (8.0, 10.0)),
    # "-0000" states no zone: the date is read as UTC
    (503, lambda: in_ten_seconds().replace("GMT", "-0000"), 60.0, (8.0, 10.0)),
    # capped at the descriptor's timeout
    (503, "120", 5.0, (5.0, 5.0)),
    # unparseable or negative: the fixed first backoff
    (503, "soon", 5.0, (0.05, 0.05)),
    (429, "-3", 5.0, (0.05, 0.05)),
])
def test_http_generator_waits_as_retry_after_asks(status, retry_after, timeout, expected):
    if callable(retry_after):
        retry_after = retry_after()
    config = StubConfig(fail_first=1, fail_status=status, retry_after=retry_after)
    with StubApiServer(config) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, timeout=timeout))
        waits = []
        gen._sleep = waits.append
        assert gen.generate(GenerationRequest(prompt_text="x")) == ["canned completion"]
        assert server.request_count == 2
    (wait,) = waits
    assert expected[0] <= wait <= expected[1]


def test_retry_after_is_read_only_on_429_and_503():
    # a 500 with Retry-After keeps the fixed, doubling backoff
    with StubApiServer(StubConfig(fail_first=2, retry_after="3")) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=2))
        waits = []
        gen._sleep = waits.append
        gen.generate(GenerationRequest(prompt_text="x"))
    assert waits == [0.05, 0.1]


def test_http_generator_rejects_malformed_success():
    with StubApiServer(StubConfig(raw_response=b"not json")) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=3))
        with pytest.raises(BackendError):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 1  # contract violations are not retried


@pytest.mark.parametrize("content", [b"null", b"5", b'["text"]'])
def test_http_generator_rejects_non_string_content(content):
    body = b'{"choices":[{"message":{"content":' + content + b'}}]}'
    with StubApiServer(StubConfig(raw_response=body)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_retries=3))
        with pytest.raises(BackendError, match="not a string"):
            gen.generate(GenerationRequest(prompt_text="x"))
        assert server.request_count == 1


def test_http_generator_checks_choice_count():
    with StubApiServer(StubConfig(choices_override=1)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url))
        with pytest.raises(BackendError):
            gen.generate(GenerationRequest(prompt_text="x", sample_count=3))


def test_http_generator_honors_max_inflight():
    with StubApiServer(StubConfig(delay=0.15)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_inflight=2))
        threads = [
            threading.Thread(
                target=lambda: gen.generate(GenerationRequest(prompt_text="x"))
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.request_count == 6
        assert server.max_inflight_seen <= 2


def test_stub_inflight_instrumentation_detects_concurrency():
    # sanity check that the cap assertion above is meaningful
    with StubApiServer(StubConfig(delay=0.3)) as server:
        gen = HttpGenerator(http_descriptor(server.base_url, max_inflight=6))
        threads = [
            threading.Thread(
                target=lambda: gen.generate(GenerationRequest(prompt_text="x"))
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.max_inflight_seen >= 3


def test_http_embedder_wire_format_and_parse(monkeypatch):
    monkeypatch.delenv(AUTH_ENV_VAR, raising=False)
    with StubApiServer(StubConfig(embedding_dim=3)) as server:
        embedder = HttpEmbedder(http_descriptor(server.base_url))
        vectors = embedder.embed(["first", "second"])
        assert [v.components for v in vectors] == [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
        (record,) = server.records
        assert record.path == "/embeddings"
        assert record.body == b'{"model":"test-model","input":["first","second"]}'


def test_http_embedder_checks_row_count():
    with StubApiServer(StubConfig(drop_last_embedding=True)) as server:
        embedder = HttpEmbedder(http_descriptor(server.base_url))
        with pytest.raises(BackendError):
            embedder.embed(["a", "b"])


@pytest.mark.parametrize(
    "row", [b"[NaN, 1.0]", b"[Infinity, 1.0]", b"[1e999, 1.0]", b'["0.5", 1.0]',
            b"[true, 1.0]", b"[null, 1.0]", b"[]", b'"1.0"', b"null"],
)
def test_http_embedder_rejects_non_finite_or_non_numeric_rows(row):
    body = b'{"data":[{"embedding":[1.0,0.0]},{"embedding":' + row + b"}]}"
    with StubApiServer(StubConfig(raw_response=body)) as server:
        embedder = HttpEmbedder(http_descriptor(server.base_url, max_retries=3))
        with pytest.raises(BackendError, match="finite numbers"):
            embedder.embed(["a", "b"])
        assert server.request_count == 1


def test_http_embedder_accepts_integer_components():
    body = b'{"data":[{"embedding":[1,0]},{"embedding":[0.5,2]}]}'
    with StubApiServer(StubConfig(raw_response=body)) as server:
        vectors = HttpEmbedder(http_descriptor(server.base_url)).embed(["a", "b"])
        assert [v.components for v in vectors] == [(1.0, 0.0), (0.5, 2.0)]


def test_http_embedder_rejects_empty_strings():
    with StubApiServer() as server:
        embedder = HttpEmbedder(http_descriptor(server.base_url))
        with pytest.raises(ValueError):
            embedder.embed([])
        with pytest.raises(ValueError):
            embedder.embed([" "])
        assert server.request_count == 0


def test_wire_encode_helpers_agree_with_documented_schema():
    body = chat_completions_body("m", GenerationRequest(prompt_text="p", temperature=0.0))
    assert list(body) == ["model", "messages", "temperature", "n", "max_tokens"]
    assert wire_encode(embeddings_body("m", ["t"])) == b'{"model":"m","input":["t"]}'


def test_subtask_id_is_not_sent():
    request = GenerationRequest(prompt_text="p", temperature=0.0, subtask_id="b01")
    assert chat_completions_body("m", request) == chat_completions_body(
        "m", GenerationRequest(prompt_text="p", temperature=0.0))


def test_fingerprint_is_sha256_hex():
    assert prompt_fingerprint("abc") == hashlib.sha256(b"abc").hexdigest()
