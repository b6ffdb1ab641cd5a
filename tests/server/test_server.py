"""End-to-end server tests over real sockets (in-process server)."""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro import ExecutionOptions
from repro.obs.metrics import (QUERY_ERRORS_TOTAL, QUERY_SECONDS,
                               SANITIZER_CHECKS_TOTAL)
from repro.server import Server, ServerThread
from repro.server.client import ClientPool, ServerClient, ServerError
from repro.storage import Database


@pytest.fixture
def hosted(tmp_path):
    """A durable server on an ephemeral port, with a slow function
    registered for timeout tests."""
    server = Server(str(tmp_path / "db"), query_timeout=10.0,
                    metrics_port=0, slow_query_threshold=0.0)
    server.db.register_function("snooze",
                                lambda s: (time.sleep(s), s)[1])
    with ServerThread(server):
        yield server


def _connect(server, **kwargs):
    return ServerClient(server.port, **kwargs)


def _scalars(result):
    """Unwrap single-column retrieve rows to their bare values."""
    return [row.fields[0][1] for row in result.rows()]


def test_ddl_write_read_roundtrip(hosted):
    with _connect(hosted) as client:
        client.execute("define type Emp: ( name: string, sal: int4 )")
        client.execute("create Emps: { ref Emp }")
        result = client.execute('append to Emps (name = "ann", sal = 10)')
        assert result.kind == "append"
        rows = client.execute(
            "retrieve (e.name, e.sal) from e in Emps").rows()
        assert len(rows) == 1
        assert rows[0].fields == (("name", "ann"), ("sal", 10))


def test_params_are_bound(hosted):
    with _connect(hosted) as client:
        client.execute("create Nums: { int4 }")
        for v in (1, 2, 3):
            client.execute("append to Nums value ($v)", params={"v": v})
        result = client.execute(
            "retrieve (x) from x in Nums where x > $min",
            params={"min": 1})
        assert sorted(_scalars(result)) == [2, 3]


def test_errors_map_to_codes(hosted):
    with _connect(hosted) as client:
        with pytest.raises(ServerError) as err:
            client.execute("retrieve (x) from x in Nowhere")
        assert err.value.code == "parse"
        with pytest.raises(ServerError) as err:
            client.execute("((((")
        assert err.value.code in ("parse", "execute")
        # The connection survives errors.
        assert _scalars(client.execute("retrieve (1)")) == [1]


def test_failed_reads_and_writes_both_reach_the_query_metrics(hosted):
    with _connect(hosted) as client:
        for failing in ("retrieve (S.name) from S in Nowhere",
                        "append to Nowhere (x = 1)"):
            errors, timed = QUERY_ERRORS_TOTAL.value(), QUERY_SECONDS.count()
            with pytest.raises(ServerError):
                client.execute(failing)
            assert QUERY_ERRORS_TOTAL.value() == errors + 1, failing
            assert QUERY_SECONDS.count() == timed + 1, failing


def test_snapshot_reads_honour_the_servers_checks(tmp_path):
    """The sanitize level (type inference plus runtime-asserted facts)
    runs on the reader path against the snapshot it reads, exactly as it
    does on the writer path."""
    server = Server(str(tmp_path / "db"),
                    ExecutionOptions(checks="sanitize"))
    with ServerThread(server), _connect(server) as client:
        client.execute("create Codes: { int4 }")
        for v in (1, 2, 2):
            client.execute("append to Codes value ($v)", params={"v": v})
        checks = SANITIZER_CHECKS_TOTAL.value()
        assert sorted(_scalars(client.execute(
            "retrieve unique (C) from C in Codes"))) == [1, 2]
        assert SANITIZER_CHECKS_TOTAL.value() > checks
        # Ill-sorted: an int4 has no fields.  A coded error, not rows.
        with pytest.raises(ServerError) as err:
            client.execute("retrieve (C.name) from C in Codes")
        assert err.value.code == "execute"
        assert "AlgebraTypeError" in str(err.value)


def test_explicit_transaction_across_requests(hosted):
    with _connect(hosted) as a, _connect(hosted) as b:
        a.execute("create Nums: { int4 }")
        a.begin()
        a.execute("append to Nums value (1)")
        # Isolated from b until commit.
        assert b.execute("retrieve (x) from x in Nums",
                         timeout=5.0).rows() == []
        # Visible inside the transaction.
        assert _scalars(a.execute("retrieve (x) from x in Nums")) == [1]
        a.commit()
        assert _scalars(b.execute("retrieve (x) from x in Nums")) == [1]


def test_abort_discards(hosted):
    with _connect(hosted) as client:
        client.execute("create Nums: { int4 }")
        client.begin()
        client.execute("append to Nums value (9)")
        client.abort()
        assert client.execute("retrieve (x) from x in Nums").rows() == []


def test_atomic_is_all_or_nothing(hosted):
    with _connect(hosted) as client:
        client.execute("create Nums: { int4 }")
        with pytest.raises(ServerError):
            client.atomic("append to Nums value (1) "
                          "append to Missing value (2)")
        assert client.execute("retrieve (x) from x in Nums").rows() == []
        client.atomic("append to Nums value (1) append to Nums value (2)")
        assert sorted(_scalars(client.execute(
            "retrieve (x) from x in Nums"))) == [1, 2]


def test_txn_protocol_errors(hosted):
    with _connect(hosted) as client:
        with pytest.raises(ServerError) as err:
            client.commit()
        assert err.value.code == "txn"
        client.begin()
        with pytest.raises(ServerError) as err:
            client.begin()
        assert err.value.code == "txn"
        client.abort()


def test_disconnect_aborts_open_transaction(hosted):
    with _connect(hosted) as a:
        a.execute("create Nums: { int4 }")
        a.begin()
        a.execute("append to Nums value (5)")
        # No commit: the socket close must abort and release the writer.
    deadline = time.monotonic() + 5.0
    with _connect(hosted) as b:
        while time.monotonic() < deadline:
            if b.execute("retrieve (x) from x in Nums").rows() == []:
                break
            time.sleep(0.02)
        assert b.execute("retrieve (x) from x in Nums").rows() == []
        # And the write lock is free again.
        b.atomic("append to Nums value (7)")
        assert _scalars(b.execute("retrieve (x) from x in Nums")) == [7]


def test_read_timeout(hosted):
    with _connect(hosted) as client:
        with pytest.raises(ServerError) as err:
            client.execute("retrieve (snooze(3))", timeout=0.2)
        assert err.value.code == "timeout"
        # Server still healthy afterwards.
        assert _scalars(client.execute("retrieve (1)")) == [1]


def test_request_id_echo_and_pipelining(hosted):
    with _connect(hosted) as client:
        client.send("retrieve (1)", request_id="a")
        client.send("retrieve (2)", request_id="b")
        first, second = client.recv(), client.recv()
        assert (first.id, second.id) == ("a", "b")
        assert _scalars(first) == [1]
        assert _scalars(second) == [2]


def test_admission_rejects_when_saturated(tmp_path):
    server = Server(str(tmp_path / "db"), queue_depth=2,
                    query_timeout=10.0)
    with ServerThread(server):
        with ServerClient(server.port) as holder, \
                ServerClient(server.port) as w1, \
                ServerClient(server.port) as w2, \
                ServerClient(server.port) as w3:
            holder.execute("create Nums: { int4 }")
            holder.begin()  # blocks the writer
            w1.send("append to Nums value (1)")
            w2.send("append to Nums value (2)")
            time.sleep(0.3)
            with pytest.raises(ServerError) as err:
                w3.execute("append to Nums value (3)")
            assert err.value.code == "admission"
            holder.commit()
            assert w1.recv().kind == "append"
            assert w2.recv().kind == "append"


def test_max_clients_cap(tmp_path):
    server = Server(Database(), max_clients=1)
    with ServerThread(server):
        with ServerClient(server.port) as first:
            first.execute("retrieve (1)")
            with pytest.raises(ServerError) as err:
                ServerClient(server.port).execute("retrieve (1)")
            assert err.value.code == "admission"


def test_metrics_endpoint(hosted):
    with _connect(hosted) as client:
        client.execute("create Nums: { int4 }")
        client.execute("append to Nums value (1)")
        client.execute("retrieve (x) from x in Nums")
        host, port = hosted.metrics_address
        base = "http://%s:%d" % (host, port)
        text = urllib.request.urlopen(base + "/metrics").read().decode()
        assert "repro_server_connections_active" in text
        assert "repro_server_requests_total" in text
        assert "repro_server_group_commit_batch" in text
        payload = json.loads(
            urllib.request.urlopen(base + "/metrics.json").read())
        assert payload["repro_server_connections_total"]["kind"] == "counter"
        stats = json.loads(urllib.request.urlopen(base + "/stats").read())
        assert stats["connections"] >= 1
        health = urllib.request.urlopen(base + "/healthz").read()
        assert health == b"ok\n"
        assert urllib.request.urlopen(base + "/metrics?x=1").status == 200


def test_slowlog_tags_client_ids(hosted):
    with _connect(hosted) as a, _connect(hosted) as b:
        a.execute("create Nums: { int4 }")
        a.execute("append to Nums value (1)")
        b.execute("retrieve (x) from x in Nums")
        by_client = hosted.slow_log.by_client()
        clients = set(by_client) - {""}
        # Both connections produced entries, attributed separately.
        assert len(clients) >= 2
        assert all(c.startswith("c") for c in clients)
        host, port = hosted.metrics_address
        slowlog = json.loads(urllib.request.urlopen(
            "http://%s:%d/slowlog" % (host, port)).read())
        assert set(slowlog) >= clients


def test_shutdown_refuses_new_work(tmp_path):
    server = Server(str(tmp_path / "db"))
    thread = ServerThread(server).start()
    with ServerClient(server.port) as client:
        client.execute("create Nums: { int4 }")
        thread.stop()
    with pytest.raises((ConnectionError, OSError)):
        ServerClient(server.port, timeout=2.0)


def test_client_pool(hosted):
    with _connect(hosted) as admin:
        admin.execute("create Nums: { int4 }")
        admin.execute("append to Nums value (1)")
    with ClientPool(hosted.port, size=2) as pool:
        assert _scalars(pool.execute("retrieve (x) from x in Nums")) == [1]
        with pool.connection() as c1, pool.connection() as c2:
            assert c1 is not c2
            assert _scalars(c1.execute("retrieve (1)")) == [1]
            assert _scalars(c2.execute("retrieve (2)")) == [2]
        # Released clients are reused.
        with pool.connection() as again:
            assert again in (c1, c2)


def test_pool_drops_a_client_whose_response_was_cut_off():
    """A server that dies mid-line leaves a line with no newline.  That
    is a dropped connection: the pool discards the client, and the next
    execute dials a fresh one."""
    replies = [b'{"ok":true,"kind":"retrieve","ro',
               b'{"ok":true,"kind":"retrieve","rows":[]}\n']
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def serve():
        for reply in replies:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as requests:
                requests.readline()
                conn.sendall(reply)

    stub = threading.Thread(target=serve, daemon=True)
    stub.start()
    try:
        with ClientPool(listener.getsockname()[1], size=1) as pool:
            with pytest.raises(ConnectionError):
                pool.execute("retrieve (1)")
            assert pool._idle == [] and pool._created == 0
            assert pool.execute("retrieve (1)").raw_rows == []
        stub.join(timeout=10.0)
        assert not stub.is_alive()
    finally:
        listener.close()
