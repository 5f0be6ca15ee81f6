"""Offline HTTP for the provider tests: scripted fake sessions and a local server."""

import contextlib
import http.server
import json
import threading


class FakeResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        return self._payload


class FakeSession:
    """Answers each GET with the next scripted response, or raises it.

    `calls` records the (url, params) of every GET.
    """

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, params))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def http_response(status, payload=None):
    """A real `requests.Response`, so the client decodes what requests decodes."""
    import requests
    resp = requests.Response()
    resp.status_code = status
    resp.url = "http://x/"
    resp._content = json.dumps(payload).encode()
    return resp


@contextlib.contextmanager
def serve(respond):
    """A stdlib HTTP server on 127.0.0.1; yields its base URL.

    `respond(path)` gives the (status, JSON payload) for each GET, or
    (status, payload, headers) to send more headers with it.
    """
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            status, payload, *headers = respond(self.path)
            body = json.dumps(payload).encode()
            self.send_response(status)
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    # `shutdown` waits for the loop's next poll: 0.5 s by default
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield "http://127.0.0.1:%d" % server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
