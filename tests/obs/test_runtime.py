"""The zero-overhead seam: disabled mode allocates nothing, configure()
swaps generations atomically, the env gate works at import time."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.obs import ObsConfig
from repro.obs import runtime as obs
from repro.obs.runtime import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM


class TestDisabledMode:
    def test_disabled_calls_allocate_no_registry_entries(self, disabled):
        for i in range(100):
            obs.counter("c", i=i).inc()
            obs.gauge("g", i=i).set(i)
            obs.histogram("h", i=i).observe(1e-3)
            with obs.span("s", i=i):
                pass
        assert len(obs.registry()) == 0
        assert obs.snapshot() == []
        assert obs.drain_spans() == ([], 0)

    def test_disabled_handles_are_shared_singletons(self, disabled):
        assert obs.counter("a") is _NULL_COUNTER is obs.counter("b", x=1)
        assert obs.gauge("a") is _NULL_GAUGE
        assert obs.histogram("a") is _NULL_HISTOGRAM
        # the null objects answer the full metric surface
        assert obs.counter("a").value == 0.0
        assert obs.histogram("a").quantile(0.99) == 0.0

    def test_default_state_honors_absent_env(self):
        # the suite runs without REPRO_OBS: reset() must land disabled
        obs.reset()
        assert os.environ.get("REPRO_OBS", "0") in ("", "0")
        assert not obs.enabled()


class TestConfigure:
    def test_configure_enables_and_reset_restores(self):
        obs.configure(ObsConfig())
        assert obs.enabled()
        obs.counter("x").inc()
        assert len(obs.registry()) == 1
        obs.reset()
        assert not obs.enabled()
        assert len(obs.registry()) == 0  # fresh generation

    def test_configure_disabled_config_stays_off(self):
        obs.configure(ObsConfig(enabled=False))
        assert not obs.enabled()
        obs.counter("x").inc()
        assert len(obs.registry()) == 0

    def test_configure_rejects_non_config(self):
        with pytest.raises(TypeError):
            obs.configure({"enabled": True})

    def test_configure_sizes_histograms_from_config(self):
        obs.configure(ObsConfig(histogram_min_s=1e-3, histogram_max_s=1.0,
                                buckets_per_decade=2))
        h = obs.histogram("lat")
        assert h.edges[0] == pytest.approx(1e-3)
        assert h.edges[-1] == pytest.approx(1.0)

    def test_old_generation_handles_keep_working(self):
        obs.configure(ObsConfig())
        old = obs.counter("x")
        obs.configure(ObsConfig())
        old.inc()  # no crash; but the new registry does not see it
        assert obs.counter("x").value == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(span_buffer=0)
        with pytest.raises(ValueError):
            ObsConfig(histogram_min_s=0.0)
        with pytest.raises(ValueError):
            ObsConfig(histogram_max_s=1e-7)  # below min
        with pytest.raises(ValueError):
            ObsConfig(buckets_per_decade=0)


@pytest.mark.slow  # spawns interpreters
class TestEnvGate:
    def test_repro_obs_env_enables_at_import(self):
        code = (
            "from repro.obs import runtime as obs\n"
            "obs.counter('boot').inc()\n"
            "print(obs.enabled(), len(obs.registry()))\n"
        )
        env = dict(os.environ, PYTHONPATH="src", REPRO_OBS="1")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "1"]

    def test_repro_obs_zero_stays_disabled(self):
        code = (
            "from repro.obs import runtime as obs\n"
            "obs.counter('boot').inc()\n"
            "print(obs.enabled(), len(obs.registry()))\n"
        )
        env = dict(os.environ, PYTHONPATH="src", REPRO_OBS="0")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "0"]


class TestMLRConfigSeam:
    def test_solver_config_carries_obs(self, tiny_geometry):
        from repro.core import MLRConfig, MLRSolver

        cfg = MLRConfig(chunk_size=8, obs=ObsConfig())
        solver = MLRSolver(tiny_geometry, cfg)
        assert obs.enabled()
        solver.close()

    def test_solver_config_rejects_bad_obs(self):
        from repro.core import MLRConfig

        with pytest.raises(ValueError):
            MLRConfig(obs="yes")

    def test_solver_without_obs_leaves_runtime_alone(self, tiny_geometry):
        from repro.core import MLRConfig, MLRSolver

        solver = MLRSolver(tiny_geometry, MLRConfig(chunk_size=8))
        assert not obs.enabled()
        solver.close()
