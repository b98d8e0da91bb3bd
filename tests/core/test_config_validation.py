"""Fail-fast validation of user-supplied configs.

The reconstruction service surfaces MLRConfig/ADMMConfig straight from
callers, so malformed values must raise a clear ValueError at construction
— not explode deep inside a worker thread mid-job.
"""

from __future__ import annotations

import pytest

from repro.core import MemoConfig, MLRConfig
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
        with pytest.raises(ValueError, match="warmup_iterations"):
            MemoConfig(warmup_iterations=-1)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(memo_ops=("Fu9D",)), "memo_ops"),  # no such op
            (dict(memo_ops=("F2D",)), "memo_ops"),  # never sweep-scheduled
            (dict(memo_ops=("Fu1D", "Fu2D", "Fu1D")), "memo_ops"),  # repeated
            (dict(max_consecutive_reuse=0), "max_consecutive_reuse"),
            (dict(max_consecutive_reuse=-1), "max_consecutive_reuse"),
        ],
    )
    def test_settings_that_turn_memoization_off_are_refused(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MemoConfig(**kwargs)

    @pytest.mark.parametrize("memo_ops", [("Fu1D",), ("Fu2D", "Fu2D*")])
    def test_op_subsets_stay_valid(self, memo_ops):
        assert MemoConfig(memo_ops=memo_ops).memo_ops == memo_ops


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
            # a port past 65535 would wrap onto another one in getaddrinfo
            (lambda: MemoConfig(server_address="h:70000"), "0..65535"),
            (lambda: ServiceConfig(memo_transport="tcp", memo_server=("h", -1)), "0..65535"),
        ],
    )
    def test_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_accepted(self):
        MemoConfig(transport="tcp", server_address="h:1")
        ServiceConfig(memo_transport="tcp", memo_server=("h", 1))
