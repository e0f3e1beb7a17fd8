"""Generation and embedding backends.

Three implementations: deterministic scripted backends for offline tests, a
64-dim hashing embedder, and HTTP clients speaking the chat-completions /
embeddings wire format. Orchestration code only sees the Generator and
Embedder protocols.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import requests

from .errors import BackendError, TransportError, UnknownPromptError
from .metrics import EmbeddingVector, tokenize

logger = logging.getLogger(__name__)

HTTP = "http"
SCRIPTED = "scripted"
HASH_EMBEDDER = "hash-embedder"

HASH_EMBEDDER_DIM = 64
# uniform offset added to every bucket count so no embedding has zero norm
HASH_EMBEDDER_OFFSET = 1e-3

AUTH_ENV_VAR = "PROMPTOR_API_KEY"

# client errors worth another attempt: request timeout, too many requests
_RETRIED_4XX = (408, 429)


@dataclass(frozen=True)
class GenerationRequest:
    prompt_text: str
    temperature: float = 1.0
    sample_count: int = 1
    max_tokens: int = 1024
    # the subtask the request serves, if any; it keys ScriptedGenerator's
    # draws and is never sent over the wire
    subtask_id: str | None = None

    def __post_init__(self):
        if not self.prompt_text:
            raise ValueError("prompt_text must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@runtime_checkable
class Generator(Protocol):
    """Returns request.sample_count outputs for one request.

    A pipeline runs independent subtasks ahead on worker threads, so
    generate may be called from up to orchestrator.MAX_PARALLEL threads at
    once: an implementation must be thread-safe. Traces stay byte-identical
    at any width if its outputs for a request depend only on the requests
    made before with the same subtask_id."""

    def generate(self, request: GenerationRequest) -> list[str]: ...


@runtime_checkable
class Embedder(Protocol):
    """Returns one vector per text. Like Generator.generate, embed may be
    called from up to orchestrator.MAX_PARALLEL threads at once, so an
    implementation must be thread-safe."""

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


def prompt_fingerprint(prompt_text: str) -> str:
    """Stable identity of a rendered prompt: sha256 hex of its UTF-8 bytes."""
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BackendDescriptor:
    kind: str
    endpoint_url: str | None = None
    model_name: str | None = None
    timeout: float = 30.0
    max_retries: int = 2
    max_inflight: int = 4

    def __post_init__(self):
        if self.kind not in (HTTP, SCRIPTED, HASH_EMBEDDER):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.kind == HTTP and not (self.endpoint_url and self.model_name):
            raise ValueError("http backends require endpoint_url and model_name")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


# -- scripted generation -------------------------------------------------------


@dataclass(frozen=True)
class ScriptedBehavior:
    """Weighted outcome list standing in for one prompt's output distribution."""

    prompt_fingerprint: str
    outcomes: tuple[tuple[str, float], ...]
    seed: int = 0

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a behavior needs at least one outcome")
        if any(p < 0 for _, p in self.outcomes):
            raise ValueError("outcome probabilities must be non-negative")
        total = math.fsum(p for _, p in self.outcomes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")

    @classmethod
    def for_prompt(
        cls, prompt_text: str, outcomes: Sequence[tuple[str, float]], seed: int = 0
    ) -> "ScriptedBehavior":
        return cls(prompt_fingerprint=prompt_fingerprint(prompt_text), outcomes=tuple(outcomes), seed=seed)


def _keyed_uniform(run_seed: int, behavior_seed: int, fingerprint: str, index: int) -> float:
    digest = hashlib.sha256(
        f"{run_seed}|{behavior_seed}|{fingerprint}|{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ScriptedGenerator:
    """Deterministic Generator: outcomes are drawn by hashing (run seed,
    behavior seed, prompt fingerprint, call index), where the call index
    counts the samples drawn before for the same prompt and the same
    request.subtask_id. So the outputs of one subtask's prompt are a pure
    function of the script, the seeds and that subtask's own calls, even
    when two subtasks running at once render the same prompt.

    Lookup order: exact fingerprint, then the longest registered prompt-text
    prefix, then the default behavior, else UnknownPromptError. Prefix rules
    exist so revised prompts (unseen exact text) still hit scripted behaviors.
    """

    def __init__(
        self,
        behaviors: Sequence[ScriptedBehavior] = (),
        prefix_rules: Sequence[tuple[str, ScriptedBehavior]] = (),
        default: ScriptedBehavior | None = None,
        run_seed: int = 0,
    ):
        self._exact = {b.prompt_fingerprint: b for b in behaviors}
        self._prefix_rules = sorted(prefix_rules, key=lambda rule: len(rule[0]), reverse=True)
        self._default = default
        self.run_seed = run_seed
        self.descriptor = BackendDescriptor(kind=SCRIPTED)
        self._lock = threading.Lock()
        # (subtask id, fingerprint) -> samples drawn so far
        self._counters: dict[tuple[str | None, str], int] = {}

    def _resolve(self, prompt_text: str) -> tuple[ScriptedBehavior, str]:
        fingerprint = prompt_fingerprint(prompt_text)
        behavior = self._exact.get(fingerprint)
        if behavior is None:
            for prefix, rule_behavior in self._prefix_rules:
                if prompt_text.startswith(prefix):
                    behavior = rule_behavior
                    break
        if behavior is None:
            behavior = self._default
        if behavior is None:
            raise UnknownPromptError(
                f"no scripted behavior for prompt starting {prompt_text[:60]!r}"
            )
        return behavior, fingerprint

    @staticmethod
    def _pick(behavior: ScriptedBehavior, u: float) -> str:
        cumulative = 0.0
        for text, p in behavior.outcomes:
            cumulative += p
            if u < cumulative:
                return text
        return behavior.outcomes[-1][0]

    def generate(self, request: GenerationRequest) -> list[str]:
        behavior, fingerprint = self._resolve(request.prompt_text)
        key = (request.subtask_id, fingerprint)
        with self._lock:
            start = self._counters.get(key, 0)
            self._counters[key] = start + request.sample_count
        if request.temperature == 0.0:
            best = max(behavior.outcomes, key=lambda pair: pair[1])[0]
            return [best] * request.sample_count
        return [
            self._pick(
                behavior,
                _keyed_uniform(self.run_seed, behavior.seed, fingerprint, start + k),
            )
            for k in range(request.sample_count)
        ]


class HashEmbedder:
    """Deterministic Embedder: token-hash bucket counts in 64 dimensions plus
    a small constant offset. Not a semantic model; a fixed reference point for
    oracle-based tests."""

    dim = HASH_EMBEDDER_DIM

    def __init__(self):
        self.descriptor = BackendDescriptor(kind=HASH_EMBEDDER)

    @staticmethod
    @functools.lru_cache(maxsize=1 << 16)
    def _bucket(token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % HASH_EMBEDDER_DIM

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        vectors = []
        for text in texts:
            if not text.strip():
                raise ValueError("cannot embed an empty string")
            counts = [0.0] * HASH_EMBEDDER_DIM
            for token in tokenize(text):
                counts[self._bucket(token)] += 1.0
            vectors.append(
                EmbeddingVector(tuple(c + HASH_EMBEDDER_OFFSET for c in counts))
            )
        return vectors


# -- HTTP backends ---------------------------------------------------------------


def chat_completions_body(model_name: str, request: GenerationRequest) -> dict:
    """Documented generation request schema; key order is part of the wire
    contract."""
    return {
        "model": model_name,
        "messages": [{"role": "user", "content": request.prompt_text}],
        "temperature": request.temperature,
        "n": request.sample_count,
        "max_tokens": request.max_tokens,
    }


def embeddings_body(model_name: str, texts: Sequence[str]) -> dict:
    return {"model": model_name, "input": list(texts)}


def wire_encode(body: dict) -> bytes:
    """Canonical body bytes: compact separators, insertion order, UTF-8."""
    return json.dumps(body, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def _auth_headers() -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(AUTH_ENV_VAR)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


class _HttpBase:
    def __init__(self, descriptor: BackendDescriptor):
        if descriptor.kind != HTTP:
            raise ValueError(f"expected an http descriptor, got kind={descriptor.kind!r}")
        self.descriptor = descriptor
        self._inflight = threading.BoundedSemaphore(descriptor.max_inflight)

    def _post(self, path: str, body: dict) -> dict:
        url = self.descriptor.endpoint_url.rstrip("/") + path
        payload = wire_encode(body)
        headers = _auth_headers()
        attempts = self.descriptor.max_retries + 1
        last_failure = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.05 * 2 ** (attempt - 1), 1.0))
            try:
                with self._inflight:
                    response = requests.post(
                        url, data=payload, headers=headers, timeout=self.descriptor.timeout
                    )
            except requests.RequestException as exc:
                last_failure = str(exc)
                logger.warning("attempt %d/%d to %s failed: %s", attempt + 1, attempts, url, exc)
                continue
            if 200 <= response.status_code < 300:
                try:
                    return response.json()
                except ValueError as exc:
                    raise BackendError(f"non-JSON response from {url}: {exc}") from exc
            last_failure = f"HTTP {response.status_code}"
            logger.warning(
                "attempt %d/%d to %s failed: %s", attempt + 1, attempts, url, last_failure
            )
            if 400 <= response.status_code < 500 and response.status_code not in _RETRIED_4XX:
                raise TransportError(f"{url} rejected the request: {last_failure}")
        raise TransportError(f"{url} failed after {attempts} attempts: {last_failure}")


class HttpGenerator(_HttpBase):
    """Generator speaking POST {endpoint_url}/chat/completions."""

    def generate(self, request: GenerationRequest) -> list[str]:
        body = chat_completions_body(self.descriptor.model_name, request)
        data = self._post("/chat/completions", body)
        try:
            outputs = [choice["message"]["content"] for choice in data["choices"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed chat-completions response: {exc}") from exc
        if not all(isinstance(out, str) for out in outputs):
            raise BackendError("malformed chat-completions response: content is not a string")
        if len(outputs) != request.sample_count:
            raise BackendError(
                f"asked for {request.sample_count} choices, got {len(outputs)}"
            )
        return outputs


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


class HttpEmbedder(_HttpBase):
    """Embedder speaking POST {endpoint_url}/embeddings."""

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        if any(not t.strip() for t in texts):
            raise ValueError("cannot embed an empty string")
        data = self._post("/embeddings", embeddings_body(self.descriptor.model_name, texts))
        try:
            rows = [row["embedding"] for row in data["data"]]
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed embeddings response: {exc}") from exc
        # an all-zero row has no direction, so no cosine distance
        if not all(isinstance(row, list) and any(row) and all(map(_finite_number, row))
                   for row in rows):
            raise BackendError("malformed embeddings response: a row is not a list of "
                               "finite numbers with one non-zero")
        vectors = [EmbeddingVector(tuple(row)) for row in rows]
        if len(vectors) != len(texts):
            raise BackendError(f"asked for {len(texts)} embeddings, got {len(vectors)}")
        dims = {v.dim for v in vectors}
        if len(dims) > 1:
            raise BackendError(f"embedding dimensions disagree: {sorted(dims)}")
        return vectors
