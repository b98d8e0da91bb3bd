"""Cross-module exhaustiveness rules: wire protocol and sweep dispatch."""

from __future__ import annotations

from repro.analysis import run_analysis

WIRE = """
    MSG_PING = 1
    MSG_PING_OK = 2
    MSG_DROP = 3
    MSG_DROP_OK = 4

    MESSAGE_NAMES = {
        MSG_PING: "ping",
        MSG_PING_OK: "ping_ok",
        MSG_DROP: "drop",
        MSG_DROP_OK: "drop_ok",
    }
"""

SERVER_FULL = """
    from .wire import MSG_DROP, MSG_DROP_OK, MSG_PING, MSG_PING_OK

    def handle(kind):
        if kind == MSG_PING:
            return MSG_PING_OK
        if kind == MSG_DROP:
            return MSG_DROP_OK
        raise ValueError(kind)
"""

CLIENT_FULL = """
    from .wire import MSG_DROP, MSG_PING

    def ping():
        return MSG_PING

    def drop():
        return MSG_DROP
"""


class TestWireExhaustive:
    def test_fully_wired_protocol_is_clean(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": WIRE,
                "src/net/server.py": SERVER_FULL,
                "src/net/client.py": CLIENT_FULL,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert report.findings == []

    def test_missing_server_handler_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": WIRE,
                "src/net/server.py": """
                from .wire import MSG_PING, MSG_PING_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                """,
                "src/net/client.py": CLIENT_FULL,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.path == "src/net/wire.py"
        assert "MSG_DROP" in f.message and "server" in f.message

    def test_missing_client_encoder_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": WIRE,
                "src/net/server.py": SERVER_FULL,
                "src/net/client.py": """
                from .wire import MSG_PING

                def ping():
                    return MSG_PING
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        assert "client encoder" in report.findings[0].message

    def test_unregistered_message_name_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": """
                MSG_PING = 1
                MSG_PING_OK = 2

                MESSAGE_NAMES = {
                    MSG_PING: "ping",
                }
                """,
                "src/net/server.py": SERVER_FULL,
                "src/net/client.py": CLIENT_FULL,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        assert "MESSAGE_NAMES" in report.findings[0].message
        assert "MSG_PING_OK" in report.findings[0].message

    def test_wire_without_siblings_checks_only_registration(self, mini_repo):
        root = mini_repo({"src/net/wire.py": WIRE})
        report = run_analysis(root, select={"wire-exhaustive"})
        assert report.findings == []


WIRE_METRICS = """
    MSG_PING = 1
    MSG_PING_OK = 2
    MSG_METRICS = 13
    MSG_METRICS_OK = 14

    MESSAGE_NAMES = {
        MSG_PING: "ping",
        MSG_PING_OK: "ping_ok",
        MSG_METRICS: "metrics",
        MSG_METRICS_OK: "metrics_ok",
    }
"""


class TestWireExhaustiveMetrics:
    """The observability pull (``MSG_METRICS``/``MSG_METRICS_OK``) follows
    the same request/reply contract as every other message pair."""

    def test_fully_wired_metrics_pair_is_clean(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_METRICS,
                "src/net/server.py": """
                from .wire import MSG_METRICS, MSG_METRICS_OK, MSG_PING, MSG_PING_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                    if kind == MSG_METRICS:
                        return MSG_METRICS_OK
                    raise ValueError(kind)
                """,
                "src/net/client.py": """
                from .wire import MSG_METRICS, MSG_PING

                def ping():
                    return MSG_PING

                def metrics():
                    return MSG_METRICS
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert report.findings == []

    def test_metrics_without_client_encoder_is_flagged(self, mini_repo):
        # server answers metrics pulls, but no client can issue one
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_METRICS,
                "src/net/server.py": """
                from .wire import MSG_METRICS, MSG_METRICS_OK, MSG_PING, MSG_PING_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                    if kind == MSG_METRICS:
                        return MSG_METRICS_OK
                """,
                "src/net/client.py": """
                from .wire import MSG_PING

                def ping():
                    return MSG_PING
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "MSG_METRICS" in f.message and "client encoder" in f.message

    def test_metrics_without_server_handler_is_flagged(self, mini_repo):
        # the pair is declared and the client sends it, but no server branch
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_METRICS,
                "src/net/server.py": """
                from .wire import MSG_PING, MSG_PING_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                """,
                "src/net/client.py": """
                from .wire import MSG_METRICS, MSG_PING

                def ping():
                    return MSG_PING

                def metrics():
                    return MSG_METRICS
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "MSG_METRICS" in f.message and "server" in f.message

    def test_unregistered_metrics_reply_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": """
                MSG_METRICS = 13
                MSG_METRICS_OK = 14

                MESSAGE_NAMES = {
                    MSG_METRICS: "metrics",
                }
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        assert "MSG_METRICS_OK" in report.findings[0].message
        assert "MESSAGE_NAMES" in report.findings[0].message


EXEC_CLEAN = """
    SWEEP_KERNELS = {"Fu1D": "_run_fu1d", "Fu1D*": "_run_fu1d_adj"}
    SWEEP_AXIS = {"Fu1D": 0, "Fu1D*": 0}

    class DirectExecutor:
        def _sweep(self, op, array, payload=None):
            return array

        def _run_fu1d(self, chunk):
            return chunk

        def _run_fu1d_adj(self, chunk):
            return chunk
"""


class TestSweepKernel:
    def test_complete_dispatch_is_clean(self, mini_repo):
        root = mini_repo({"src/executor.py": EXEC_CLEAN})
        report = run_analysis(root, select={"sweep-kernel"})
        assert report.findings == []

    def test_executor_without_the_seam_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/executor.py": """
                SWEEP_KERNELS = {"Fu1D": "_run_fu1d"}
                SWEEP_AXIS = {"Fu1D": 0}

                class Seamless:
                    def _run_fu1d(self, chunk):
                        return chunk
                """
            }
        )
        report = run_analysis(root, select={"sweep-kernel"})
        assert len(report.findings) == 1
        assert "_sweep" in report.findings[0].message

    def test_inherited_seam_satisfies(self, mini_repo):
        root = mini_repo(
            {
                "src/executor.py": """
                SWEEP_KERNELS = {"Fu1D": "_run_fu1d"}
                SWEEP_AXIS = {"Fu1D": 0}

                class Base:
                    def _sweep(self, op, array, payload=None):
                        return array

                class Derived(Base):
                    def _run_fu1d(self, chunk):
                        return chunk
                """
            }
        )
        report = run_analysis(root, select={"sweep-kernel"})
        assert report.findings == []

    def test_getattr_delegation_satisfies(self, mini_repo):
        root = mini_repo(
            {
                "src/executor.py": """
                SWEEP_KERNELS = {"Fu1D": "_run_fu1d"}
                SWEEP_AXIS = {"Fu1D": 0}

                class Proxy:
                    def __getattr__(self, name):
                        return getattr(object(), name)

                    def _run_fu1d(self, chunk):
                        return chunk
                """
            }
        )
        report = run_analysis(root, select={"sweep-kernel"})
        assert report.findings == []

    def test_unimplemented_kernel_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/executor.py": """
                SWEEP_KERNELS = {"Fu1D": "_run_fu1d", "Fu2D": "_run_fu2d"}
                SWEEP_AXIS = {"Fu1D": 0, "Fu2D": 0}

                class DirectExecutor:
                    def _sweep(self, op, array, payload=None):
                        return array

                    def _run_fu1d(self, chunk):
                        return chunk
                """
            }
        )
        report = run_analysis(root, select={"sweep-kernel"})
        assert len(report.findings) == 1
        assert "_run_fu2d" in report.findings[0].message

    def test_missing_sweep_axis_entry_is_flagged(self, mini_repo):
        root = mini_repo(
            {
                "src/executor.py": """
                SWEEP_KERNELS = {"Fu1D": "_run_fu1d"}
                SWEEP_AXIS = {}

                class DirectExecutor:
                    def _sweep(self, op, array, payload=None):
                        return array

                    def _run_fu1d(self, chunk):
                        return chunk
                """
            }
        )
        report = run_analysis(root, select={"sweep-kernel"})
        assert len(report.findings) == 1
        assert "SWEEP_AXIS" in report.findings[0].message

WIRE_TRACE = """
    MSG_PING = 1
    MSG_PING_OK = 2
    MSG_TRACE_PULL = 17
    MSG_TRACE_PULL_OK = 18

    MESSAGE_NAMES = {
        MSG_PING: "ping",
        MSG_PING_OK: "ping_ok",
        MSG_TRACE_PULL: "trace_pull",
        MSG_TRACE_PULL_OK: "trace_pull_ok",
    }
"""


class TestWireExhaustiveTracePull:
    """The span drain (``MSG_TRACE_PULL``/``MSG_TRACE_PULL_OK``) follows
    the same request/reply contract as every other message pair."""

    def test_fully_wired_trace_pair_is_clean(self, mini_repo):
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_TRACE,
                "src/net/server.py": """
                from .wire import MSG_PING, MSG_PING_OK, MSG_TRACE_PULL, MSG_TRACE_PULL_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                    if kind == MSG_TRACE_PULL:
                        return MSG_TRACE_PULL_OK
                    raise ValueError(kind)
                """,
                "src/net/client.py": """
                from .wire import MSG_PING, MSG_TRACE_PULL

                def ping():
                    return MSG_PING

                def trace_pull():
                    return MSG_TRACE_PULL
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert report.findings == []

    def test_trace_pull_without_client_encoder_is_flagged(self, mini_repo):
        # server drains spans, but no client can ask for them
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_TRACE,
                "src/net/server.py": """
                from .wire import MSG_PING, MSG_PING_OK, MSG_TRACE_PULL, MSG_TRACE_PULL_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                    if kind == MSG_TRACE_PULL:
                        return MSG_TRACE_PULL_OK
                """,
                "src/net/client.py": """
                from .wire import MSG_PING

                def ping():
                    return MSG_PING
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "MSG_TRACE_PULL" in f.message and "client encoder" in f.message

    def test_trace_pull_without_server_handler_is_flagged(self, mini_repo):
        # declared and sent, but the daemon never answers it
        root = mini_repo(
            {
                "src/net/wire.py": WIRE_TRACE,
                "src/net/server.py": """
                from .wire import MSG_PING, MSG_PING_OK

                def handle(kind):
                    if kind == MSG_PING:
                        return MSG_PING_OK
                """,
                "src/net/client.py": """
                from .wire import MSG_PING, MSG_TRACE_PULL

                def ping():
                    return MSG_PING

                def trace_pull():
                    return MSG_TRACE_PULL
                """,
            }
        )
        report = run_analysis(root, select={"wire-exhaustive"})
        assert len(report.findings) == 1
        f = report.findings[0]
        assert "MSG_TRACE_PULL" in f.message and "server" in f.message
