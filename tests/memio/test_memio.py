"""Offload substrate: variable inventory, phase tracing, real SSD spills."""

from __future__ import annotations

import numpy as np
import pytest

from repro.memio import (
    PhaseTrace,
    SpillManager,
    admm_variables,
    peak_resident_bytes,
    total_bytes,
)


class TestVariables:
    def test_inventory_names(self):
        v = admm_variables(1024)
        assert {"u", "psi", "lam", "g", "g_prev", "d", "dhat", "work"} <= set(v)

    def test_field_variables_are_3x_volume(self):
        v = admm_variables(128)
        assert v["psi"].nbytes == 3 * v["u"].nbytes
        assert v["psi"].nbytes == v["lam"].nbytes == v["g"].nbytes

    def test_1k_peak_near_paper_121gb(self):
        """Figure 13: no-offload peak ~121 GB at (1K)^3."""
        total = total_bytes(admm_variables(1024))
        assert 100 * 2**30 < total < 150 * 2**30

    def test_aliased_vars_not_candidates(self):
        v = admm_variables(64)
        assert not v["u"].offload_candidate
        assert v["psi"].offload_candidate

    def test_peak_resident_excludes_offloaded(self):
        v = admm_variables(64)
        full = peak_resident_bytes(v)
        part = peak_resident_bytes(v, offloaded={"psi", "lam"})
        assert part == full - v["psi"].nbytes - v["lam"].nbytes

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            admm_variables(1)


class TestPhaseTrace:
    def test_access_ordering(self):
        t = PhaseTrace()
        t.begin_iteration(0)
        t.begin_phase("lsp")
        t.touch("u", "r")
        t.touch("g", "w")
        t.begin_phase("rsp")
        t.touch("psi", "rw")
        t.end_iteration()
        assert [a.variable for a in t.accesses] == ["u", "g", "psi"]
        assert t.phases(0) == ["lsp", "rsp"]
        assert t.variables() == ["g", "psi", "u"]

    def test_invalid_mode(self):
        t = PhaseTrace()
        with pytest.raises(ValueError):
            t.touch("u", "x")

    def test_phase_access_map(self):
        t = PhaseTrace()
        t.begin_iteration(1)
        t.begin_phase("lsp")
        t.touch("u", "r")
        t.touch("u", "w")
        assert t.phase_access_map(1) == {"lsp": {"u"}}

    def test_last_access_phase(self):
        t = PhaseTrace()
        t.begin_iteration(0)
        t.begin_phase("lsp")
        t.touch("psi", "r")
        t.begin_phase("rsp")
        t.touch("psi", "w")
        assert t.last_access_phase(0, "psi") == "rsp"
        assert t.last_access_phase(0, "nope") is None


class TestSpillManager:
    def test_spill_fetch_roundtrip(self, rng, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            a = rng.standard_normal((32, 32)).astype(np.float32)
            sm.spill("psi", a)
            assert sm.is_spilled("psi")
            out = sm.fetch("psi")
            np.testing.assert_array_equal(out, a)
            assert sm.stats.spills == 1 and sm.stats.loads == 1

    def test_prefetch_hides_load(self, rng, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            a = rng.standard_normal(1000)
            sm.spill("g", a)
            sm.prefetch("g")
            out = sm.fetch("g")
            np.testing.assert_array_equal(out, a)
            assert sm.stats.prefetches == 1

    def test_fetch_unspilled_raises(self, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            with pytest.raises(KeyError):
                sm.fetch("ghost")

    def test_prefetch_unspilled_raises(self, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            with pytest.raises(KeyError):
                sm.prefetch("ghost")

    def test_double_prefetch_is_idempotent(self, rng, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            sm.spill("x", rng.standard_normal(10))
            sm.prefetch("x")
            sm.prefetch("x")
            assert sm.stats.prefetches == 1

    def test_discard(self, rng, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            sm.spill("x", rng.standard_normal(10))
            sm.discard("x")
            assert not sm.is_spilled("x")

    def test_byte_accounting(self, rng, tmp_path):
        with SpillManager(str(tmp_path)) as sm:
            a = rng.standard_normal(256)
            sm.spill("v", a)
            sm.fetch("v")
            assert sm.stats.bytes_written == a.nbytes
            assert sm.stats.bytes_read == a.nbytes


class TestSpillManagerConcurrency:
    """Safety properties under concurrent and repeated use."""

    def test_double_close_is_idempotent(self, rng, tmp_path):
        sm = SpillManager(str(tmp_path))
        sm.spill("x", rng.standard_normal(8))
        sm.close()
        sm.close()  # must not raise

    def test_close_with_inflight_prefetch(self, rng):
        sm = SpillManager()  # owned temp dir, removed on close
        sm.spill("big", rng.standard_normal(200_000))
        sm.prefetch("big")
        sm.close()  # waits out the load; no error, no leaked dir
        sm.close()

    def test_prefetch_after_close_is_noop(self, rng, tmp_path):
        sm = SpillManager(str(tmp_path))
        sm.spill("x", rng.standard_normal(8))
        sm.close()
        sm.prefetch("x")  # must not raise, must not submit
        assert sm.stats.prefetches == 0

    def test_spill_after_close_raises(self, rng, tmp_path):
        sm = SpillManager(str(tmp_path))
        sm.close()
        with pytest.raises(RuntimeError):
            sm.spill("x", rng.standard_normal(8))

    def test_concurrent_prefetch_single_submission(self, rng, tmp_path):
        import threading

        with SpillManager(str(tmp_path)) as sm:
            sm.spill("x", rng.standard_normal(50_000))
            barrier = threading.Barrier(8)

            def hammer():
                barrier.wait()
                sm.prefetch("x")

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # one in-flight load, counted once
            assert sm.stats.prefetches == 1
            out = sm.fetch("x")
            assert out.shape == (50_000,)

    def test_close_waits_for_inflight_spills(self, rng):
        """close() racing spill() must neither crash the writer nor leak
        the owned temp directory: either the spill loses (RuntimeError from
        the closed check) or its file is registered and cleaned up."""
        import os
        import threading

        for _trial in range(4):
            sm = SpillManager()
            directory = sm._dir
            barrier = threading.Barrier(2)
            errors = []

            def writer():
                barrier.wait()
                for i in range(20):
                    try:
                        sm.spill(f"w{i}", rng.standard_normal(20_000))
                    except RuntimeError:
                        return  # lost the race to close(): the legal outcome
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            t = threading.Thread(target=writer)
            t.start()
            barrier.wait()
            sm.close()
            t.join(timeout=10)
            assert not t.is_alive()
            assert errors == []
            assert not os.path.exists(directory)

    def test_respill_with_inflight_prefetch(self, rng, tmp_path):
        """Re-spilling a name retires the in-flight load of the old bytes;
        the next fetch sees the new data, never a torn file."""
        with SpillManager(str(tmp_path)) as sm:
            old = rng.standard_normal(100_000)
            new = rng.standard_normal(100_000)
            sm.spill("x", old)
            for _ in range(5):
                sm.prefetch("x")
                sm.spill("x", new)
                np.testing.assert_array_equal(sm.fetch("x"), new)
                sm.spill("x", old)
                np.testing.assert_array_equal(sm.fetch("x"), old)

    def test_concurrent_spill_fetch_stats(self, rng, tmp_path):
        import threading

        with SpillManager(str(tmp_path)) as sm:
            arrays = {f"v{i}": rng.standard_normal(1000) for i in range(8)}

            def worker(name, arr):
                sm.spill(name, arr)
                sm.prefetch(name)
                np.testing.assert_array_equal(sm.fetch(name), arr)

            threads = [
                threading.Thread(target=worker, args=(n, a))
                for n, a in arrays.items()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sm.stats.spills == 8
            assert sm.stats.loads == 8
            assert sm.stats.bytes_read == sum(a.nbytes for a in arrays.values())
