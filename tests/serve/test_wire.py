"""Hostile input at the HTTP boundary: the bounded head reader
(``repro.serve.wire``) refuses what it cannot frame with a 4xx and closes
the connection, and the daemon keeps answering everyone else."""

import io
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _serve_testlib import TENANTS, TINY_REQUEST, tiny_setup
from repro.serve.server import PlanningDaemon
from repro.serve.service import PlannerService
from repro.serve.wire import WireError, read_head

BODY = json.dumps({**TINY_REQUEST, "tenant": "gold"}).encode()
#: seconds a refused connection may stay open after its reply
CLOSE_BOUND_S = 5.0


@pytest.fixture(scope="module")
def daemon():
    d = PlanningDaemon(
        PlannerService(tiny_setup()), TENANTS, port=0, workers=2
    )
    d.start()
    yield d
    d.shutdown()


def connect(port: int) -> socket.socket:
    s = socket.create_connection(("127.0.0.1", port), timeout=CLOSE_BOUND_S)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s


def read_reply(rfile) -> tuple[int, dict[str, str], bytes]:
    """One reply, parsed without the code under test."""
    status_line = rfile.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def exchange(port: int, data: bytes, *, half_close: bool = False):
    """Send ``data`` on a fresh connection; return the first reply and
    the seconds until the daemon closed the connection after it (``None``
    when it stayed open for :data:`CLOSE_BOUND_S`)."""
    with connect(port) as s:
        try:
            s.sendall(data)
            if half_close:
                s.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the daemon refused before reading it all
        with s.makefile("rb") as rfile:
            reply = read_reply(rfile)
            t0 = time.monotonic()
            try:
                while rfile.read1(65536):
                    pass
            except TimeoutError:
                return reply, None
            except ConnectionResetError:
                pass  # closed with bytes it never read: closed all the same
            return reply, time.monotonic() - t0


def ask(port: int, data: bytes) -> tuple[int, dict[str, str], bytes]:
    """Send ``data`` on a fresh connection and read one reply."""
    with connect(port) as s, s.makefile("rb") as rfile:
        s.sendall(data)
        return read_reply(rfile)


def post(headers: str, body: bytes = BODY) -> bytes:
    return f"POST /plan HTTP/1.1\r\nHost: t\r\n{headers}\r\n".encode() + body


class TestReader:
    def read(self, head: bytes):
        return read_head(io.BufferedReader(io.BytesIO(head)))

    def test_a_head_and_its_length(self):
        start, headers, length = self.read(
            b"POST /plan HTTP/1.1\r\nContent-Length: 30\r\n"
            b"content-length: 30\r\nX-A:  v w \r\n\r\nbody"
        )
        assert start == "POST /plan HTTP/1.1"
        assert headers["x-a"] == "v w" and length == 30

    def test_end_of_stream_before_a_head_is_none(self):
        assert self.read(b"") is None

    @pytest.mark.parametrize("head, status", [
        (b"GET / HTTP/1.1\r\nHost: t\r\n", 400),  # no blank line
        (b"GET / HTTP/1.1\r\nX-A: 1\r\n  folded\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nX A: 1\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nContent-Length: \xd9\xa1\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nContent-Length: 9" + b"9" * 18 + b"\r\n\r\n",
         413),
    ])
    def test_refusals_carry_their_status(self, head, status):
        with pytest.raises(WireError) as info:
            self.read(head)
        assert info.value.status == status
        assert isinstance(info.value, ConnectionError)


class TestLimits:
    def test_start_line_limit_is_414(self, daemon):
        at = b"GET /" + b"a" * (65536 - 16) + b" HTTP/1.1\r\n"
        assert len(at) == 65536
        assert ask(daemon.port, at + b"\r\n")[0] == 404
        (status, _, _), closed = exchange(daemon.port, at[:5] + b"a" + at[5:])
        assert status == 414 and closed is not None

    def test_header_count_limit_is_431(self, daemon):
        def get(n: int) -> bytes:
            lines = "".join(f"X-H{i}: {i}\r\n" for i in range(n))
            return f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode()

        assert ask(daemon.port, get(100))[0] == 200
        (status, _, _), closed = exchange(daemon.port, get(101))
        assert status == 431 and closed is not None

    def test_header_line_limit_is_431(self, daemon):
        line = b"X-Long: " + b"v" * 65536 + b"\r\n"
        head = b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n"
        (status, _, _), closed = exchange(daemon.port, head)
        assert status == 431 and closed is not None


class TestProtocol:
    @pytest.mark.parametrize("method", ["HEAD", "PUT"])
    def test_other_methods_get_501(self, daemon, method):
        (status, _, _), closed = exchange(
            daemon.port, f"{method} /healthz HTTP/1.1\r\n\r\n".encode()
        )
        assert status == 501 and closed is not None

    def test_http_2_gets_505(self, daemon):
        (status, _, _), closed = exchange(
            daemon.port, b"GET /healthz HTTP/2.0\r\n\r\n"
        )
        assert status == 505 and closed is not None

    def test_http_1_0_closes_after_one_reply(self, daemon):
        (status, headers, _), closed = exchange(
            daemon.port, b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert status == 200 and closed is not None
        assert headers["connection"] == "close"

    def test_connection_close_is_honoured(self, daemon):
        (status, headers, body), closed = exchange(
            daemon.port, post(f"Connection: close\r\n"
                              f"Content-Length: {len(BODY)}\r\n")
        )
        assert status == 200 and json.loads(body)["makespan_s"] > 0
        assert headers["connection"] == "close" and closed is not None

    def test_pipelined_requests_are_answered_in_order(self, daemon):
        with connect(daemon.port) as s, s.makefile("rb") as rfile:
            s.sendall(
                post(f"Content-Length: {len(BODY)}\r\n")
                + b"GET /nope HTTP/1.1\r\n\r\n"
                + b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            replies = [read_reply(rfile) for _ in range(3)]
        assert [r[0] for r in replies] == [200, 404, 200]
        assert json.loads(replies[0][2])["makespan_s"] > 0
        assert json.loads(replies[2][2])["ok"] is True

    def test_a_request_one_byte_per_send_gets_the_same_answer(self, daemon):
        request = post(f"Content-Length: {len(BODY)}\r\n")
        with connect(daemon.port) as s, s.makefile("rb") as rfile:
            s.sendall(request)
            whole = read_reply(rfile)
            for i in range(len(request)):
                s.send(request[i:i + 1])
            bytewise = read_reply(rfile)
        assert whole[0] == bytewise[0] == 200
        assert (json.loads(bytewise[2])["makespan_s"]
                == json.loads(whole[2])["makespan_s"])

    def test_expect_100_continue(self, daemon):
        with connect(daemon.port) as s, s.makefile("rb") as rfile:
            s.sendall(post(f"Expect: 100-continue\r\n"
                           f"Content-Length: {len(BODY)}\r\n", b""))
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            s.sendall(BODY)
            status, _, body = read_reply(rfile)
        assert status == 200 and json.loads(body)["makespan_s"] > 0


# --------------------------------------------------------------------- #
# mutated heads: each example carries at least one defect
# --------------------------------------------------------------------- #
DEFECTS = {
    "truncated": None,  # the client stops mid-head and half-closes
    "long start line": None,
    "junk method": ["G@T", "", "GET/", "(POST)", "PO ST"],
    "junk version": ["HTTP/1", "http/1.1", "HTTP/1.1x", "HTTP/11", "FOO"],
    "too many headers": None,
    "long header line": None,
    "colon-less line": ["X-Junk", "Content-Length 5", "=", "a b"],
    "folded line": [" continued", "\tcontinued"],
    "bad length": ["3_0", "+30", "-1", "0x1e", "3 0", "30.0", "", "٣٠",
                   "9" * 19, "30, 31"],
    "two lengths": None,
    "transfer-encoding": ["chunked", "identity", "gzip, chunked"],
}


@st.composite
def hostile_heads(draw):
    defects = draw(st.sets(st.sampled_from(sorted(DEFECTS)), min_size=1))
    pick = {d: draw(st.sampled_from(DEFECTS[d]))
            for d in defects if DEFECTS[d] is not None}
    method = pick.get("junk method", draw(st.sampled_from(["GET", "POST"])))
    target = "/plan" if method == "POST" else "/healthz"
    if "long start line" in defects:
        target += "x" * draw(st.integers(65536, 65600))
    version = pick.get("junk version", "HTTP/1.1")
    lines = [f"{method} {target} {version}", "Host: t"]
    count = draw(st.integers(95, 105))  # header lines, Host included
    if "too many headers" in defects:
        count = max(count, 101)
    lines += [f"X-H{i}: {i}" for i in range(count - 1)]
    if "long header line" in defects:
        lines.append("X-Long: " + "v" * 65536)
    if "colon-less line" in defects:
        lines.insert(draw(st.integers(2, len(lines))), pick["colon-less line"])
    if "folded line" in defects:
        lines.insert(draw(st.integers(2, len(lines))), pick["folded line"])
    if "bad length" in defects:
        lines.append(f"Content-Length: {pick['bad length']}")
    if "two lengths" in defects:
        lines += [f"Content-Length: {len(BODY)}",
                  f"Content-Length: {len(BODY) + 1}"]
    if "transfer-encoding" in defects:
        lines += [f"Transfer-Encoding: {pick['transfer-encoding']}",
                  f"Content-Length: {len(BODY)}"]
    data = ("\r\n".join(lines) + "\r\n\r\n").encode()
    if "truncated" in defects:  # no body follows a head cut short
        return data[: draw(st.integers(1, len(data) - 1))], True
    return data + BODY, False


@settings(max_examples=40, deadline=None)
@given(hostile_heads())
def test_hostile_heads_get_a_4xx_and_a_closed_connection(daemon, head):
    data, truncated = head
    (status, _, _), closed = exchange(daemon.port, data, half_close=truncated)
    assert 400 <= status < 500, status
    assert closed is not None, "a refused connection stayed open"
    assert ask(daemon.port, b"GET /healthz HTTP/1.1\r\n\r\n")[0] == 200
