"""Instrumented local HTTP stub for backend tests.

Records every request body byte-for-byte, counts concurrent in-flight
requests, and can be told to fail, stall, hang up, or return malformed
payloads.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@dataclass
class StubConfig:
    canned_text: str = "canned completion"
    embedding_dim: int = 4
    later_embedding_dim: int | None = None  # the dimension of every /embeddings reply but the first
    fail_first: int = 0  # reply 500 to this many requests before succeeding
    always_fail: bool = False
    fail_status: int = 500  # the status of the induced failures above
    retry_after: str | None = None  # a Retry-After header on the induced failures
    delay: float = 0.0
    choices_override: int | None = None  # force a wrong choice count
    drop_last_embedding: bool = False
    raw_response: bytes | None = None  # verbatim 200 body
    close_without_reply: bool = False  # read the request, then close the socket


@dataclass
class RecordedRequest:
    path: str
    headers: dict
    body: bytes

    @property
    def json(self) -> dict:
        return json.loads(self.body)


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, status: int, data: bytes, content_type: str = "application/json",
               headers: dict | None = None):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):
        server = self.server
        with server.lock:
            server.inflight += 1
            server.max_inflight_seen = max(server.max_inflight_seen, server.inflight)
            server.request_count += 1
            count = server.request_count
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            with server.lock:
                server.records.append(
                    RecordedRequest(path=self.path, headers=dict(self.headers), body=body)
                )
            cfg = server.config
            if cfg.delay:
                time.sleep(cfg.delay)
            if cfg.close_without_reply:
                self.close_connection = True
                return
            if cfg.always_fail or count <= cfg.fail_first:
                headers = {} if cfg.retry_after is None else {"Retry-After": cfg.retry_after}
                self._reply(cfg.fail_status, b'{"error": "induced failure"}', headers=headers)
                return
            if cfg.raw_response is not None:
                self._reply(200, cfg.raw_response)
                return
            parsed = json.loads(body)
            if self.path.endswith("/chat/completions"):
                n = cfg.choices_override if cfg.choices_override is not None else parsed.get("n", 1)
                payload = {"choices": [{"message": {"content": cfg.canned_text}} for _ in range(n)]}
            elif self.path.endswith("/embeddings"):
                with server.lock:
                    server.embedding_replies += 1
                    later = server.embedding_replies > 1
                dim = later and cfg.later_embedding_dim or cfg.embedding_dim
                rows = [
                    {"embedding": [float(i + 1)] + [0.0] * (dim - 1)}
                    for i in range(len(parsed["input"]))
                ]
                if cfg.drop_last_embedding and rows:
                    rows = rows[:-1]
                payload = {"data": rows}
            else:
                self._reply(404, b"{}")
                return
            self._reply(200, json.dumps(payload).encode())
        finally:
            with server.lock:
                server.inflight -= 1


class _Server(ThreadingHTTPServer):
    # server_close waits for every handler, so a test ends with no request
    # still being served
    daemon_threads = False

    def handle_error(self, request, client_address):
        # a client that timed out has closed its end before the reply
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class StubApiServer:
    """Context manager running the stub on an ephemeral localhost port."""

    def __init__(self, config: StubConfig | None = None):
        self.config = config or StubConfig()

    def __enter__(self) -> "StubApiServer":
        self._httpd = _Server(("127.0.0.1", 0), _Handler)
        self._httpd.config = self.config
        self._httpd.lock = threading.Lock()
        self._httpd.records = []
        self._httpd.inflight = 0
        self._httpd.max_inflight_seen = 0
        self._httpd.request_count = 0
        self._httpd.embedding_replies = 0
        # shutdown() waits for serve_forever's next poll, 0.5 s by default
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,),
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    @property
    def records(self) -> list[RecordedRequest]:
        return self._httpd.records

    @property
    def request_count(self) -> int:
        return self._httpd.request_count

    @property
    def max_inflight_seen(self) -> int:
        return self._httpd.max_inflight_seen
