"""PlanCache failure recovery: corrupt files, failed saves, the doctor.

A damaged plan cache must never take dispatch down with it -- the PR 8
contract is: load failures degrade to an empty cache (counted, warned
once, original preserved in a ``.corrupt`` sidecar), save failures
degrade to in-memory operation, and ``repro cache doctor`` can both see
and repair every one of those states.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import run_cli
from repro import obs
from repro.guard import faults
from repro.tuner import PlanCache, cache as cache_mod, matmul
from repro.tuner.space import Plan


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear()
    obs.disable()
    obs.reset()
    # warn-once is keyed per path; tmp_path makes keys unique per test,
    # but reset anyway so assertions about warning counts are exact
    cache_mod._warned_paths.clear()
    yield
    faults.clear()
    obs.disable()
    obs.reset()
    cache_mod._warned_paths.clear()


def _seed_file(path, n=192, threads=1):
    cache = PlanCache(path)
    cache.put(n, n, n, "float64", threads,
              Plan(algorithm="strassen", steps=1, threads=threads),
              seconds=0.01, gflops=1.0)
    assert cache.save()
    return cache


# ------------------------------------------------------- load resilience
def test_truncated_file_recovers_with_sidecar(tmp_path):
    """Crash mid-write: half a JSON document on disk."""
    path = tmp_path / "plans.json"
    _seed_file(path)
    full = path.read_text()
    path.write_text(full[: len(full) // 2])

    obs.enable()
    cache = PlanCache(path)
    assert len(cache) == 0  # degraded to empty, not raised
    assert cache.load_error is not None
    sidecar = tmp_path / "plans.json.corrupt"
    assert cache.corrupt_sidecar == sidecar
    assert sidecar.exists()
    assert sidecar.read_text() == full[: len(full) // 2]
    assert not path.exists()  # quarantined away, save() can rewrite
    snap = obs.summarize()
    assert snap["guard"]["cache_load_errors"] >= 1


def test_corrupt_then_save_round_trips(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text("{not json")
    cache = PlanCache(path)
    cache.put(192, 192, 192, "float64", 1, Plan(threads=1),
              seconds=0.01, gflops=1.0)
    assert cache.save()
    assert len(PlanCache(path)) == 1


def test_non_dict_payload_is_corrupt(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text(json.dumps([1, 2, 3]))
    cache = PlanCache(path)
    assert len(cache) == 0
    assert cache.load_error is not None
    assert (tmp_path / "plans.json.corrupt").exists()


def test_load_warning_fires_once_per_path(tmp_path, caplog):
    import logging

    path = tmp_path / "plans.json"
    path.write_text("{broken")
    with caplog.at_level(logging.WARNING, logger="repro.tuner.cache"):
        PlanCache(path).keys()
        # second instance, same path: sidecar already holds the corrupt
        # original so this load is clean -- write fresh corruption
        path.write_text("{broken-again")
        PlanCache(path).keys()
    warnings = [r for r in caplog.records if "corrupt" in r.getMessage()]
    assert len(warnings) == 1


def test_unreadable_file_counts_load_error(tmp_path, monkeypatch):
    path = tmp_path / "plans.json"
    _seed_file(path)

    def boom(self):
        raise OSError("injected read failure")

    obs.enable()
    monkeypatch.setattr(type(path), "read_text", boom)
    cache = PlanCache(path)
    assert len(cache) == 0
    assert cache.load_error is not None
    # an unreadable file is NOT quarantined (nothing to move safely)
    assert cache.corrupt_sidecar is None
    assert obs.summarize()["guard"]["cache_load_errors"] >= 1


def test_injected_cache_corruption(tmp_path):
    """The cache.corrupt chaos point forces the unparsable path."""
    path = tmp_path / "plans.json"
    _seed_file(path)
    with faults.inject("cache.corrupt"):
        cache = PlanCache(path)
        assert len(cache) == 0
    assert cache.load_error is not None
    assert (tmp_path / "plans.json.corrupt").exists()


@pytest.mark.chaos
def test_dispatch_survives_corrupt_cache(tmp_path):
    """End to end: a corrupt cache file never fails a multiply."""
    path = tmp_path / "plans.json"
    _seed_file(path)
    with faults.inject("cache.corrupt"):
        cache = PlanCache(path)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((192, 192))
        B = rng.standard_normal((192, 192))
        C = matmul(A, B, threads=1, cache=cache, guard=True)
    assert np.allclose(C, A @ B)


# ------------------------------------------------------- save resilience
def test_save_failure_counts_and_warns_once(tmp_path, monkeypatch, caplog):
    import logging

    path = tmp_path / "readonly" / "plans.json"
    cache = PlanCache(path)
    cache.put(192, 192, 192, "float64", 1, Plan(threads=1),
              seconds=0.01, gflops=1.0)

    import os

    def no_replace(src, dst):
        raise OSError("injected write failure")

    obs.enable()
    monkeypatch.setattr(os, "replace", no_replace)
    with caplog.at_level(logging.WARNING, logger="repro.tuner.cache"):
        assert not cache.save()
        assert not cache.save()
    assert cache.save_error is not None
    assert obs.summarize()["guard"]["cache_save_errors"] >= 2
    warnings = [r for r in caplog.records
                if "cannot be saved" in r.getMessage()]
    assert len(warnings) == 1


# ----------------------------------------------------------- cache doctor
def test_doctor_healthy_cache(tmp_path):
    path = tmp_path / "plans.json"
    _seed_file(path)
    rc, out = run_cli("cache", "doctor", "--cache", str(path))
    assert rc == 0
    assert "healthy" in out


def test_doctor_reports_and_fixes_corruption(tmp_path):
    path = tmp_path / "plans.json"
    path.write_text('{"definitely truncated')
    rc, out = run_cli("cache", "doctor", "--cache", str(path))
    assert rc == 1
    assert "[corrupt]" in out

    rc, out = run_cli("cache", "doctor", "--cache", str(path), "--fix")
    assert rc == 0
    assert "fixed" in out
    assert not (tmp_path / "plans.json.corrupt").exists()

    rc, out = run_cli("cache", "doctor", "--cache", str(path))
    assert rc == 0 and "healthy" in out


def test_doctor_reports_quarantined_plans(tmp_path):
    path = tmp_path / "plans.json"
    cache = _seed_file(path)
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    for _ in range(2):
        cache.record_failure(192, 192, 192, "float64", 1, plan, "boom")
    assert cache.save()

    rc, out = run_cli("cache", "doctor", "--cache", str(path))
    assert rc == 1
    assert "[quarantined]" in out and "strassen" in out

    rc, out = run_cli("cache", "doctor", "--cache", str(path), "--fix")
    assert rc == 0
    assert not PlanCache(path).quarantined_keys()


def test_doctor_reports_unparsable_entries(tmp_path):
    path = tmp_path / "plans.json"
    _seed_file(path)
    payload = json.loads(path.read_text())
    key = next(iter(payload["entries"]))
    payload["entries"][key]["plan"] = "not-a-plan-dict"
    path.write_text(json.dumps(payload))

    rc, out = run_cli("cache", "doctor", "--cache", str(path))
    assert rc == 1
    assert "[unparsable]" in out

    rc, _ = run_cli("cache", "doctor", "--cache", str(path), "--fix")
    assert rc == 0
    assert len(PlanCache(path)) == 0


def test_cache_show_includes_failure_ledger(tmp_path):
    path = tmp_path / "plans.json"
    cache = _seed_file(path)
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    for _ in range(2):
        cache.record_failure(192, 192, 192, "float64", 1, plan, "boom")
    assert cache.save()
    rc, out = run_cli("cache", "show", "--cache", str(path))
    assert rc == 0
    assert "failure ledger" in out and "QUARANTINED" in out


# ------------------------------------------------------- merge on save
def _ledger_key(n, plan):
    return PlanCache._ledger_key(n, n, n, "float64", 1, plan)


def test_two_writers_merge_instead_of_clobbering(tmp_path):
    """Two cache objects on one file: each save merges its own puts,
    failures and rehabilitations into what the other already wrote."""
    path = tmp_path / "plans.json"
    plan = Plan(algorithm="strassen", steps=1, threads=1)
    a, b = PlanCache(path), PlanCache(path)
    a.put(512, 512, 512, "float64", 1, Plan(threads=1), seconds=0.1)
    b.put(1024, 1024, 1024, "float64", 1, plan, seconds=0.5)
    for _ in range(2):
        a.record_failure(256, 256, 256, "float64", 1, plan, "boom")
    assert a.save()
    b.record_failure(384, 384, 384, "float64", 1, plan, "boom")
    assert b.save()  # merges a's 512 entry and 256 ledger key
    a.record_success(256, 256, 256, "float64", 1, plan)
    assert a.save()  # the rehabilitation deletes the 256 key on disk
    assert a.get(1024, 1024, 1024, "float64", 1) == plan  # adopted b's
    b.put(2048, 2048, 2048, "float64", 1, plan, seconds=2.0)
    assert b.save()  # b still holds the 256 key, but never changed it

    merged = PlanCache(path)
    assert merged.keys() == sorted(
        f"{n}x{n}x{n}:float64:1t" for n in (512, 1024, 2048))
    assert list(merged.failure_ledger()) == [_ledger_key(384, plan)]
    assert not (tmp_path / "plans.json.lock").exists()


def test_concurrent_savers_lose_nothing(tmp_path):
    """More savers than cores, each with its own cache object on one
    file: with merge-on-save every put survives."""
    import sys
    import threading

    path = tmp_path / "plans.json"
    errors = []

    def writer(base):
        try:
            cache = PlanCache(path)
            for i in range(6):
                n = base + 8 * i
                cache.put(n, n, n, "float64", 1, Plan(threads=1))
                assert cache.save()
        except Exception as e:  # surfaced below; a thread cannot fail the test
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(200 + base,))
                   for base in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(PlanCache(path)) == 24
