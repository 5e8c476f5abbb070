"""/predict input validation: bad bodies are refused before any batch.

A negative ``Content-Length`` must not reach ``rfile.read(-1)`` (which
blocks on a keep-alive connection), an oversized body is refused without
reading it, and a non-finite pixel answers 400 before ``app.submit`` —
otherwise it raises inside quantization and fails every request of its
micro-batch with a 500.
"""

import http.client
import json
import urllib.parse

import numpy as np
import pytest

from repro.serve.http import MAX_BODY_BYTES
from repro.serve.server import InferenceServer


@pytest.fixture(scope="module")
def server(manager, serve_config):
    srv = InferenceServer(serve_config, sessions=manager)
    srv.start()
    yield srv
    srv.shutdown()


@pytest.fixture
def submits(server, monkeypatch):
    """Count the requests that reach the serving backend."""
    calls = []
    real = server.submit

    def counting(arr, *args, **kwargs):
        calls.append(arr.shape)
        return real(arr, *args, **kwargs)

    monkeypatch.setattr(server, "submit", counting)
    return calls


def _raw_post(server, headers: dict, body: bytes = b""):
    """POST /predict with exactly these headers; returns (status, json)."""
    url = urllib.parse.urlparse(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.putrequest("POST", "/predict", skip_accept_encoding=True)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), resp.getheader("Connection")
    finally:
        conn.close()


def _image(server, fill=None) -> list:
    img = np.array(server.session.sample_inputs[0], dtype=np.float64)
    if fill is not None:
        img.flat[5] = fill
    return img.tolist()


class TestBodyLength:
    def test_negative_content_length_is_400_without_reading(self, server, submits):
        status, body, connection = _raw_post(server, {"Content-Length": "-1"})
        assert status == 400
        assert "Content-Length" in body["error"]
        assert connection == "close"
        assert submits == []

    def test_oversized_body_is_413_without_reading(self, server, submits):
        status, body, connection = _raw_post(
            server, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert connection == "close"
        assert submits == []


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pixel_is_400_before_submit(self, server, submits, bad):
        payload = json.dumps({"inputs": [_image(server), _image(server, bad)]}).encode()
        status, body, _ = _raw_post(
            server, {"Content-Type": "application/json",
                     "Content-Length": str(len(payload))}, payload)
        assert status == 400
        assert "finite" in body["error"]
        assert submits == []

    def test_good_request_still_served(self, server, submits):
        payload = json.dumps({"input": _image(server)}).encode()
        status, body, _ = _raw_post(
            server, {"Content-Type": "application/json",
                     "Content-Length": str(len(payload))}, payload)
        assert status == 200
        assert body["batch"] == 1
        assert submits == [(1,) + tuple(server.session.input_shape)]


class TestInProcessSubmit:
    """``submit`` runs the same validator, so an in-process caller's bad
    batch is refused alone instead of failing its co-batched neighbours."""

    @pytest.mark.parametrize("bad", ["shape", "nan"])
    def test_bad_request_fails_alone(self, server, bad):
        good = np.array(server.session.sample_inputs[:1], dtype=np.float64)
        if bad == "shape":
            arr = np.zeros((1, 3, 32, 32))
        else:
            arr = good.copy()
            arr.flat[5] = np.nan
        first = server.submit(good)
        with pytest.raises(ValueError):
            server.submit(arr)
        second = server.submit(good)
        for fut in (first, second):
            logits = fut.result(timeout=30)
            assert logits.shape[0] == 1 and np.isfinite(logits).all()
