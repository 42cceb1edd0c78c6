"""Chaos composition: the streaming path under lossy fault profiles.

Extends the PR-3 degradation invariant (tests/robustness/
test_chaos_matrix.py) to continuous ingestion, per cycle:

* under a lossy profile every cycle's alert set is a **subset** of the
  fault-free run's same-cycle alert set — dropped or corrupted pages
  may lose alerts but must never mint new ones;
* the stream never raises: faulted cycles complete and report their
  drops on the source;
* durability survives the faults — after every faulted cycle the
  latest checkpoint is loadable, and the faulted stream can be resumed
  and continued.
"""

from __future__ import annotations

import pytest

from repro.robustness.faults import FaultyWeb, get_profile
from repro.stream import (
    CheckpointStore,
    EvolvingWebStream,
    StreamProcessor,
    WriteAheadLog,
)

from tests.stream.conftest import evolve_config

CYCLES = 3
DOCS_PER_CYCLE = 10
FAULT_SEED = 5
LOSSY_PROFILES = ["lossy", "degraded"]


def _alert_keys(report) -> set[str]:
    return {alert.alert_id for alert in report.alerts}


@pytest.fixture(scope="module")
def healthy_cycles(fresh_run):
    """Per-cycle alert key sets of the fault-free stream."""
    etap, web = fresh_run()
    source = EvolvingWebStream(
        web, config=evolve_config(), docs_per_cycle=DOCS_PER_CYCLE
    )
    processor = StreamProcessor(etap)
    per_cycle = [
        _alert_keys(processor.process_batch(source.next_batch()))
        for _ in range(CYCLES)
    ]
    assert any(per_cycle), "healthy stream minted nothing (vacuous)"
    return per_cycle


@pytest.mark.parametrize("profile_name", LOSSY_PROFILES)
def test_lossy_stream_degrades_never_fabricates(
    fresh_run, healthy_cycles, tmp_path, profile_name
):
    profile = get_profile(profile_name)
    assert profile.lossy, "this suite is about lossy contracts"
    etap, web = fresh_run()
    faulty = FaultyWeb(web, profile, seed=FAULT_SEED)
    source = EvolvingWebStream(
        faulty, config=evolve_config(), docs_per_cycle=DOCS_PER_CYCLE
    )
    checkpoints = CheckpointStore(tmp_path / "checkpoints")
    processor = StreamProcessor(
        etap,
        wal=WriteAheadLog(tmp_path / "wal.jsonl"),
        checkpoints=checkpoints,
    )

    for cycle in range(1, CYCLES + 1):
        report = processor.process_batch(source.next_batch())  # no raise
        minted = _alert_keys(report)
        healthy = healthy_cycles[cycle - 1]
        assert minted <= healthy, (
            f"{profile_name} cycle {cycle}: lossy stream minted alerts "
            f"absent from the fault-free run: "
            f"{sorted(minted - healthy)[:5]}"
        )
        # Durability must survive the faulted cycle: the checkpoint
        # just written is loadable and current.
        latest = checkpoints.latest()
        assert latest is not None
        checkpoint_id, state = latest
        assert checkpoint_id == cycle
        assert state["cycle"] == cycle
    assert source.dropped + source.degraded > 0, (
        f"{profile_name} dropped nothing — the invariant was untested"
    )
    processor.close()

    # And the faulted stream is resumable: a fresh process restores the
    # final checkpoint and continues through another faulted cycle.
    etap2, web2 = fresh_run()
    faulty2 = FaultyWeb(web2, profile, seed=FAULT_SEED)
    source2 = EvolvingWebStream(
        faulty2, config=evolve_config(), docs_per_cycle=DOCS_PER_CYCLE
    )
    resumed, info = StreamProcessor.resume(
        etap2, WriteAheadLog(tmp_path / "wal.jsonl"), checkpoints
    )
    assert info.cycle == CYCLES
    assert sorted(resumed.emitted_keys) == sorted(processor.emitted_keys)
    source2.seek(info.cycle)
    resumed.process_batch(source2.next_batch())  # cycle 4: no raise
    assert resumed.cycle == CYCLES + 1
    resumed.close()


def test_transient_only_stream_is_lossless(fresh_run, healthy_cycles):
    """Retries must fully mask a transient-only profile, per cycle."""
    profile = get_profile("flaky")
    assert not profile.lossy
    etap, web = fresh_run()
    faulty = FaultyWeb(web, profile, seed=FAULT_SEED)
    source = EvolvingWebStream(
        faulty, config=evolve_config(), docs_per_cycle=DOCS_PER_CYCLE
    )
    processor = StreamProcessor(etap)
    for cycle in range(1, CYCLES + 1):
        report = processor.process_batch(source.next_batch())
        assert _alert_keys(report) == healthy_cycles[cycle - 1]
    assert source.dropped == 0 and source.degraded == 0
