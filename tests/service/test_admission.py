"""Tests for the admission controller (bounded queue, tenant)."""

import pytest

from repro.service import (
    Admission,
    AdmissionConfig,
    AdmissionController,
    Overloaded,
)


def _book(ctrl: AdmissionController, adm: Admission, start: float, end: float):
    ctrl.commit(adm, start, end)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionConfig(high_water=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(high_water=1.5)
        with pytest.raises(ValueError):
            AdmissionConfig(per_tenant_inflight=0)

    def test_high_water_depth(self):
        assert AdmissionConfig(max_queue=8, high_water=0.75).high_water_depth == 6
        assert AdmissionConfig(max_queue=1, high_water=0.1).high_water_depth == 1


class TestQueueGate:
    def test_queue_full_rejects_typed(self):
        ctrl = AdmissionController(AdmissionConfig(max_queue=2))
        # two grants queued (start in the future relative to now=0)
        for i in range(2):
            adm = ctrl.admit("t", 0.0)
            _book(ctrl, adm, 10.0 + i, 20.0 + i)
        with pytest.raises(Overloaded, match="queue full"):
            ctrl.admit("t", 0.0)
        assert ctrl.stats.rejections["queue_full"] == 1

    def test_queue_drains_on_virtual_clock(self):
        ctrl = AdmissionController(AdmissionConfig(max_queue=1))
        adm = ctrl.admit("t", 0.0)
        _book(ctrl, adm, 5.0, 8.0)
        with pytest.raises(Overloaded):
            ctrl.admit("t", 0.0)
        # once the grant has started it no longer counts as queued
        ctrl.admit("t", 6.0)

    def test_high_water_sets_degrade_hint(self):
        ctrl = AdmissionController(AdmissionConfig(max_queue=4, high_water=0.5))
        hints = []
        for i in range(4):
            adm = ctrl.admit("t", 0.0)
            hints.append(adm.degrade_hint)
            _book(ctrl, adm, 100.0 + i, 200.0 + i)
        # depth at admission: 0, 1, 2, 3 -> hint from depth >= 2
        assert hints == [False, False, True, True]
        assert ctrl.stats.degrade_hints == 2


class TestTenantGate:
    def test_per_tenant_cap_is_per_tenant(self):
        ctrl = AdmissionController(
            AdmissionConfig(max_queue=16, per_tenant_inflight=2)
        )
        for _ in range(2):
            _book(ctrl, ctrl.admit("a", 0.0), 0.0, 100.0)
        with pytest.raises(Overloaded, match="tenant"):
            ctrl.admit("a", 0.0)
        ctrl.admit("b", 0.0)  # other tenants unaffected

    def test_cap_releases_when_grants_finish(self):
        ctrl = AdmissionController(
            AdmissionConfig(max_queue=16, per_tenant_inflight=1)
        )
        _book(ctrl, ctrl.admit("a", 0.0), 0.0, 50.0)
        with pytest.raises(Overloaded):
            ctrl.admit("a", 0.0)
        ctrl.admit("a", 60.0)


class TestStats:
    def test_counts_and_peaks(self):
        ctrl = AdmissionController(AdmissionConfig(max_queue=2))
        a1 = ctrl.admit("t", 0.0)
        _book(ctrl, a1, 10.0, 20.0)
        a2 = ctrl.admit("t", 0.0)
        _book(ctrl, a2, 11.0, 21.0)
        with pytest.raises(Overloaded):
            ctrl.admit("t", 0.0)
        ctrl.record_rejection("deadline_exceeded")
        d = ctrl.stats.as_dict()
        assert d["admitted"] == 2
        assert d["rejected"] == 2
        assert d["rejections"] == {"queue_full": 1, "deadline_exceeded": 1}
        assert d["peak_queue"] == 2
