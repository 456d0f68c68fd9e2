"""A local OpenAI-compatible chat-completions endpoint that replays a recorded transcript.

Each POST to ``<url>/chat/completions`` gets the reply the transcript recorded for its
prompt (the last message's content), a prompt's replies in the order they were
recorded, with ``usage`` token counts and ``finish_reason: "stop"``; a prompt with no
reply left, or another path, gets HTTP 404.  The server listens on 127.0.0.1 on a free
port and serves each connection on a daemon thread.  It sets TCP_NODELAY on every
connection it accepts: without it, each request on a kept-alive connection stalled
~45 ms on delayed ACKs, so the endpoint would time itself.  It counts the requests and
the connections it served, so a test can check that a run's calls share one session.

In a test, ``start()`` it and ``stop()`` it when done.  As a script it prints its URL
and serves until it is killed:

    python tests/stub_endpoint.py out/vapu/reference_list-vapu-gpt-4o-t0-r1.jsonl
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from vapu.gateway import CHARS_PER_TOKEN
from vapu.workspace import load_transcript


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so a client session reuses its connection
    timeout = 30  # seconds an idle connection keeps its thread

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        prompt = body["messages"][-1]["content"]
        reply = self.server.reply(prompt) if self.path.endswith("/chat/completions") else None
        if reply is None:
            self._send(404, {"error": {"message": f"no recorded reply for {self.path}"}})
            return
        prompt_tokens, completion_tokens = (math.ceil(len(text) / CHARS_PER_TOKEN)
                                            for text in (prompt, reply))
        self._send(200, {
            "object": "chat.completion",
            "model": body.get("model"),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": reply}}],
            "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens,
                      "total_tokens": prompt_tokens + completion_tokens},
        })

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # one line per request is noise
        pass


class StubEndpoint(ThreadingHTTPServer):
    """The endpoint, serving ``replies``: each prompt's replies, in the order they go out."""

    daemon_threads = True

    def __init__(self, replies: dict[str, list[str]]):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies = {prompt: deque(texts) for prompt, texts in replies.items()}
        self.requests = 0
        self.connections = 0
        self._open: set[socket.socket] = set()  # shut by stop(), which ends their threads
        self._lock = threading.Lock()

    @classmethod
    def from_transcript(cls, path: str | Path) -> StubEndpoint:
        replies: dict[str, list[str]] = {}
        for exchange in load_transcript(Path(path)).exchanges:
            replies.setdefault(exchange.prompt, []).append(exchange.response)
        return cls(replies)

    @property
    def url(self) -> str:
        """The base URL a client sets as ``VAPU_API_BASE_<PROVIDER>``."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1"

    def reply(self, prompt: str) -> str | None:
        with self._lock:
            self.requests += 1
            queue = self.replies.get(prompt)
            return queue.popleft() if queue else None

    def get_request(self) -> tuple[socket.socket, object]:
        connection, address = super().get_request()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self.connections += 1
            self._open.add(connection)
        return connection, address

    def shutdown_request(self, request: socket.socket) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def start(self) -> threading.Thread:
        """Serve on a daemon thread, which is returned."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop serving, shut every open connection, so that each handler thread ends,
        and close the listening socket."""
        self.shutdown()
        with self._lock:
            connections = list(self._open)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # the client closed it first
                pass
        self.server_close()


if __name__ == "__main__":
    server = StubEndpoint.from_transcript(sys.argv[1])
    print(server.url, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
