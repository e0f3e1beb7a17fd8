"""Chat-completions and embeddings stub for the http-fanout workload.

Runs in its own process so it does not share an interpreter lock with the
client. It answers /chat/completions from the workload's ScriptedGenerator
tables and /embeddings with HashEmbedder vectors, so a run through the HTTP
backends must reproduce the in-process scripted trace exactly.

It speaks HTTP/1.1 with keep-alive, sleeps a fixed service delay per served
request, and answers every FAIL_EVERY-th request (counted from the last
reset) with 503 before serving it. It counts accepted connections, requests,
503s and its own service time.

Both traffic figures are assumed, not measured on a real backend.
SERVICE_DELAY_S is the 5 ms median round trip of the in-process test stub
(tests/stub_server.py). The 503 share is kept small (1 in 32) so that the
client's fixed 50 ms retry backoff (8 x 0.05 s per full run) stays well below
the time spent in the round trips the workload measures. The smoke size
serves only about 20 requests, so it fails every 8th to still reach the
retry path.

    python3 perfbench/stub.py --seed 1 --scale full

prints "PORT <n>" once it listens on 127.0.0.1. POST /__reset restores the
tables and zeroes the counters; GET /__stats returns the counters as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

SERVICE_DELAY_S = 0.005
FAIL_EVERY = {"full": 32, "smoke": 8}


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, scripts, fail_every: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        from promptor.backends import HashEmbedder

        self.scripts = scripts
        self.fail_every = fail_every
        self.embedder = HashEmbedder()
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.generator = self.scripts[0].generator()
            self.requests = 0
            self.failed = 0
            self.connections = 0
            self.service_s = 0.0

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "failed": self.failed,
                "connections": self.connections,
                "service_s": self.service_s,
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def _reply(self, status: int, body: dict):
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/__stats":
            self._reply(200, self.server.stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        start = time.perf_counter()
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/__reset":
            server.reset()
            self._reply(200, {"ok": True})
            return
        with server.lock:
            server.requests += 1
            failing = server.requests % server.fail_every == 0
            server.failed += failing
        try:
            if failing:
                self._reply(503, {"error": "induced overload"})
            else:
                time.sleep(SERVICE_DELAY_S)
                status, payload = self._serve(json.loads(body))
                self._reply(status, payload)
        finally:
            with server.lock:
                server.service_s += time.perf_counter() - start

    def _serve(self, request: dict) -> tuple[int, dict]:
        from promptor.backends import GenerationRequest

        if self.path.endswith("/chat/completions"):
            outputs = self.server.generator.generate(
                GenerationRequest(
                    prompt_text=request["messages"][0]["content"],
                    temperature=request["temperature"],
                    sample_count=request["n"],
                    max_tokens=request["max_tokens"],
                )
            )
            return 200, {"choices": [{"message": {"content": t}} for t in outputs]}
        if self.path.endswith("/embeddings"):
            vectors = self.server.embedder.embed(request["input"])
            return 200, {"data": [{"embedding": list(v.components)} for v in vectors]}
        return 404, {"error": "not found"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import workloads

    server = _Server(workloads.build(workloads.HTTP_FANOUT, args.seed, args.scale),
                     FAIL_EVERY[args.scale])
    parent = os.getppid()

    def exit_with_parent():
        # a benchmark killed before it could stop the stub leaves no orphan
        while os.getppid() == parent:
            time.sleep(0.5)
        server.shutdown()

    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
