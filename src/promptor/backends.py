"""Generation and embedding backends.

Three implementations: deterministic scripted backends for offline tests, a
64-dim hashing embedder, and HTTP clients speaking the chat-completions /
embeddings wire format. Orchestration code only sees the Generator and
Embedder protocols.
"""

from __future__ import annotations

import email.utils
import functools
import hashlib
import http.client
import json
import logging
import math
import os
import ssl
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Protocol, Sequence, runtime_checkable
from urllib.parse import urlsplit

import numpy as np

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
# replies whose Retry-After header sets the wait before the next attempt
_RETRY_AFTER_STATUSES = (429, 503)


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
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
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
    implementation must be thread-safe. A stability gate embeds each text
    once and reuses its vector for the gate's later measurements, so a
    text's vector must not change within one gate."""

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
        if self.kind != HTTP or not (self.endpoint_url and self.model_name):
            raise ValueError("a backend descriptor needs kind 'http', endpoint_url and model_name")
        url = urlsplit(self.endpoint_url)  # url.port raises ValueError past 65535
        if (url.scheme not in ("http", "https") or not url.hostname or not url.hostname.isascii()
                or url.username is not None or url.query or url.fragment or url.port == 0):
            raise ValueError(f"endpoint_url must be http(s)://host[:port][/path], got {self.endpoint_url!r}")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # a socket takes no timeout past the platform's longest wait
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must lie in (0, {threading.TIMEOUT_MAX:g}] seconds")


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
        if not all(0 <= p <= 1 for _, p in self.outcomes):
            raise ValueError("outcome probabilities must lie in [0, 1]")
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

    @staticmethod
    @functools.lru_cache(maxsize=1 << 16)
    def _bucket(token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % HASH_EMBEDDER_DIM

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if len(texts) == 0:
            raise ValueError("embed requires at least one text")
        if any(not text.strip() for text in texts):
            raise ValueError("cannot embed an empty string")
        # one count per (text, bucket) id; integer counts convert exactly, so
        # each component is the same float as a per-text count plus the offset
        bucket = self._bucket
        ids = [row * HASH_EMBEDDER_DIM + bucket(token)
               for row, text in enumerate(texts) for token in tokenize(text)]
        counts = np.bincount(ids, minlength=len(texts) * HASH_EMBEDDER_DIM)
        rows = (counts.reshape(len(texts), HASH_EMBEDDER_DIM) + HASH_EMBEDDER_OFFSET).tolist()
        return [EmbeddingVector(row) for row in rows]


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


def _retry_after_s(value: str | None, cap: float) -> float | None:
    """The wait a Retry-After header asks for, in seconds and at most cap:
    delay-seconds or an HTTP-date. None when the header is absent,
    unparseable or negative, a date in the past included."""
    if value is None:
        return None
    try:
        delay = int(value)
    except ValueError:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": a UTC time with no stated zone
            when = when.replace(tzinfo=timezone.utc)
        delay = (when - datetime.now(timezone.utc)).total_seconds()
    return float(min(delay, cap)) if delay >= 0 else None


class _HttpBase:
    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor
        # every wait between attempts goes through here; tests replace it
        self._sleep = time.sleep
        self._inflight = threading.BoundedSemaphore(descriptor.max_inflight)
        url = urlsplit(descriptor.endpoint_url)
        # one TLS context, verifying against the system CA store, serves every attempt
        tls = {"context": ssl.create_default_context()} if url.scheme == "https" else {}
        connection = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        self._connect = functools.partial(connection, url.netloc, timeout=descriptor.timeout, **tls)
        self._path = url.path.rstrip("/")

    def _post(self, path: str, body: dict) -> dict:
        url = self.descriptor.endpoint_url.rstrip("/") + path
        payload = wire_encode(body)
        headers = _auth_headers()
        attempts = self.descriptor.max_retries + 1
        last_failure = None
        retry_after = None
        for attempt in range(attempts):
            if attempt:
                backoff = min(0.05 * 2 ** (attempt - 1), 1.0)
                self._sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            connection = self._connect()  # one per attempt, closed on every path
            try:
                with self._inflight:
                    connection.request("POST", self._path + path, payload, headers)
                    with connection.getresponse() as response:
                        status, data = response.status, response.read()
                        if status in _RETRY_AFTER_STATUSES:
                            retry_after = _retry_after_s(response.getheader("Retry-After"),
                                                         self.descriptor.timeout)
            except (OSError, http.client.HTTPException) as exc:
                last_failure = str(exc)
                logger.warning("attempt %d/%d to %s failed: %s", attempt + 1, attempts, url, exc)
                continue
            finally:
                connection.close()
            if 200 <= status < 300:
                try:
                    return json.loads(data)
                except ValueError as exc:
                    raise BackendError(f"non-JSON response from {url}: {exc}") from exc
            last_failure = f"HTTP {status}"
            logger.warning("attempt %d/%d to %s failed: %s", attempt + 1, attempts, url, last_failure)
            if status < 500 and status not in _RETRIED_4XX:  # a redirect fails like a 4xx
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
