"""Tests for the experiment runner machinery and calibration module."""

from __future__ import annotations

import pytest

from repro.energy.calibration import STRUCT_TARGETS, TABLE1_TARGETS, report, residuals
from repro.energy.cacti import DEFAULT_PARAMS
from repro.experiments import runner
from repro.experiments.runner import (
    MACHINE_CONV128,
    MACHINE_SAMIE,
    MACHINE_UNBOUNDED,
    SimSpec,
    build_lsq,
    clear_cache,
    machine_arb,
    machine_samie_unbounded_shared,
    run_many,
)
from repro.lsq.arb import ARBLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieLSQ


@pytest.fixture(autouse=True)
def _private_store(tmp_path, monkeypatch):
    """Keep the default session's store away from the user's cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_cache()
    yield
    clear_cache()


class TestMachineFactories:
    """The canonical machines build the paper's LSQ geometries."""

    def test_baseline_is_128(self):
        lsq = build_lsq(MACHINE_CONV128[1])
        assert isinstance(lsq, ConventionalLSQ)
        assert lsq.capacity == 128

    def test_unbounded(self):
        assert build_lsq(MACHINE_UNBOUNDED[1]).capacity is None

    def test_samie_default_is_table3(self):
        lsq = build_lsq(MACHINE_SAMIE[1])
        assert isinstance(lsq, SamieLSQ)
        cfg = lsq.cfg
        assert (cfg.banks, cfg.entries_per_bank, cfg.slots_per_entry) == (64, 2, 8)
        assert cfg.shared_entries == 8
        assert cfg.addr_buffer_slots == 64

    def test_samie_unbounded_shared(self):
        lsq = build_lsq(machine_samie_unbounded_shared(32, 4)[1])
        assert lsq.cfg.shared_entries is None
        assert (lsq.cfg.banks, lsq.cfg.entries_per_bank) == (32, 4)

    def test_arb_factory(self):
        lsq = build_lsq(machine_arb(8, 16)[1])
        assert isinstance(lsq, ARBLSQ)
        assert (lsq.cfg.banks, lsq.cfg.addresses_per_bank) == (8, 16)


def _run(workload, machine, *args, **kw):
    return run_many([SimSpec.make(workload, machine, *args, **kw)], jobs=1)[0]


class TestRunOne:
    """Single-spec runs through ``run_many`` on the default session."""

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            _run("nonsense", MACHINE_CONV128, 100, 10)

    def test_memoisation_key_includes_machine(self):
        a = _run("gzip", MACHINE_CONV128, 800, 100)
        b = _run("gzip", MACHINE_SAMIE, 800, 100)
        assert a is not b
        assert a is _run("gzip", MACHINE_CONV128, 800, 100)
        clear_cache()
        c = _run("gzip", MACHINE_CONV128, 800, 100)
        assert c is not a and c == a  # the store serves an equal copy

    def test_memoisation_key_includes_cfg(self):
        from repro.core.config import ProcessorConfig
        from repro.mem.hierarchy import MemConfig

        base = _run("gzip", MACHINE_SAMIE, 400, 100)
        fast = _run("gzip", MACHINE_SAMIE, 400, 100,
                    cfg=ProcessorConfig(mem=MemConfig(fast_way_hit_latency=1)))
        assert base is not fast

    def test_env_scale_read_per_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTR", "300")
        monkeypatch.setenv("REPRO_WARMUP", "50")
        runner.ensure_scale_coherent()
        a = _run("gzip", MACHINE_CONV128)
        assert 300 <= a.instructions < 310  # commit-width overshoot only
        monkeypatch.setenv("REPRO_INSTR", "500")
        runner.ensure_scale_coherent()  # scale changed: memo dropped
        b = _run("gzip", MACHINE_CONV128)
        assert 500 <= b.instructions < 510


class TestCalibration:
    def test_residuals_shape(self):
        import numpy as np
        import dataclasses

        fields = [f.name for f in dataclasses.fields(DEFAULT_PARAMS) if not f.name.startswith("e_")]
        x0 = np.array([getattr(DEFAULT_PARAMS, f) for f in fields])
        res = residuals(x0)
        # 2 per Table 1 row + structure targets + one prior term per param
        assert len(res) == 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS) + len(fields)

    def test_frozen_params_fit_targets(self):
        import numpy as np
        import dataclasses

        fields = [f.name for f in dataclasses.fields(DEFAULT_PARAMS) if not f.name.startswith("e_")]
        x0 = np.array([getattr(DEFAULT_PARAMS, f) for f in fields])
        res = residuals(x0)[: 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS)]
        assert max(abs(r) for r in res) < 0.20  # every target within 20%

    def test_report_rows(self, capsys):
        rows = report(DEFAULT_PARAMS)
        capsys.readouterr()
        assert len(rows) == 2 * len(TABLE1_TARGETS) + len(STRUCT_TARGETS)
        for _, paper, model in rows:
            assert paper > 0 and model > 0
