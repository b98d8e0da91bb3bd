"""Fail-fast validation of user-supplied configs.

The reconstruction service surfaces MLRConfig/ADMMConfig straight from
callers, so malformed values must raise a clear ValueError at construction
— not explode deep inside a worker thread mid-job.
"""

from __future__ import annotations

import pytest

from repro.core import MemoConfig, MLRConfig, ObsConfig
from repro.service import ServiceConfig
from repro.solvers import ADMMConfig


class TestMLRConfig:
    def test_defaults_valid(self):
        MLRConfig()

    @pytest.mark.parametrize("bad", [0, -1])
    def test_chunk_size(self, bad):
        with pytest.raises(ValueError, match="chunk_size"):
            MLRConfig(chunk_size=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_n_workers(self, bad):
        with pytest.raises(ValueError, match="n_workers"):
            MLRConfig(n_workers=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_n_shards(self, bad):
        with pytest.raises(ValueError, match="n_shards"):
            MLRConfig(n_shards=bad)

    def test_memo_must_be_memo_config(self):
        with pytest.raises(ValueError, match="MemoConfig"):
            MLRConfig(memo={"tau": 0.9})

    def test_memo_snapshot_types(self):
        MLRConfig(memo_snapshot=None)
        MLRConfig(memo_snapshot="/some/path")
        MLRConfig(memo_snapshot={"n_shards": 1, "partitions": []})
        with pytest.raises(ValueError, match="memo_snapshot"):
            MLRConfig(memo_snapshot=42)


class TestMemoConfig:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.0001])
    def test_tau_open_closed_interval(self, bad):
        with pytest.raises(ValueError, match="tau"):
            MemoConfig(tau=bad)

    def test_tau_boundary_one_allowed(self):
        MemoConfig(tau=1.0)

    def test_encoder_and_cache_enums(self):
        with pytest.raises(ValueError, match="encoder"):
            MemoConfig(encoder="transformer")
        with pytest.raises(ValueError, match="cache"):
            MemoConfig(cache="l2")

    def test_numeric_knobs(self):
        with pytest.raises(ValueError, match="key_hw"):
            MemoConfig(key_hw=1)
        with pytest.raises(ValueError, match="warmup_iterations"):
            MemoConfig(warmup_iterations=-1)


class TestADMMConfig:
    def test_defaults_valid(self):
        ADMMConfig()

    def test_alpha_and_rho(self):
        with pytest.raises(ValueError, match="alpha"):
            ADMMConfig(alpha=-1e-3)
        with pytest.raises(ValueError, match="rho"):
            ADMMConfig(rho=0.0)

    def test_iteration_counts_individually_reported(self):
        with pytest.raises(ValueError, match="n_outer"):
            ADMMConfig(n_outer=0)
        with pytest.raises(ValueError, match="n_inner"):
            ADMMConfig(n_inner=0)

    def test_adaptation_knobs(self):
        with pytest.raises(ValueError, match="rho_mu"):
            ADMMConfig(rho_mu=0.0)
        with pytest.raises(ValueError, match="rho_scale"):
            ADMMConfig(rho_scale=1.0)
        with pytest.raises(ValueError, match="step_max_rel"):
            ADMMConfig(step_max_rel=0.0)

    def test_fusion_requires_cancellation(self):
        with pytest.raises(ValueError, match="fusion"):
            ADMMConfig(fusion=True, cancellation=False)


class TestTransportOptions:
    """Options that select a transport or a port: each rejection names the
    field, at construction, whichever config carries it."""

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda: MemoConfig(transport="udp"), "transport"),
            (lambda: MemoConfig(transport="tcp"), "server_address"),
            (lambda: MemoConfig(server_address="h:1,nope"), "nope"),
            (lambda: ServiceConfig(memo_transport="udp"), "memo_transport"),
            (lambda: ServiceConfig(memo_transport="tcp"), "memo_server"),
            (lambda: ServiceConfig(memo_transport="tcp", memo_server="h:1,nope"), "nope"),
            (lambda: ObsConfig(http_port=70000), "http_port"),
            (lambda: ObsConfig(http_port=-1), "http_port"),
        ],
    )
    def test_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_accepted(self):
        MemoConfig(transport="tcp", server_address="h:1")
        ServiceConfig(memo_transport="tcp", memo_server=("h", 1))
        ObsConfig(http_port=0)

    @pytest.mark.parametrize(
        "raw, port, warned",
        [("", None, False), ("0", 0, False), ("9100", 9100, False),
         ("metrics", None, True), ("65536", None, True), ("-1", None, True)],
    )
    def test_obs_http_env(self, monkeypatch, caplog, raw, port, warned):
        from repro.obs.runtime import _env_http_port

        monkeypatch.setenv("REPRO_OBS_HTTP", raw)
        with caplog.at_level("WARNING", logger="repro.obs"):
            assert _env_http_port() == port
        assert bool(caplog.records) == warned
