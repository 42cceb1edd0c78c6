"""Property suite for the replicated read path.

Three invariants the chaos bench leans on, pinned over arbitrary kill
masks, fault profiles, and seeds:

* hedged fan-out never has more than two requests in flight for one
  query (and exactly one when hedging is off);
* with no faults and no kills, the replicated cluster is
  indistinguishable from a single replica — byte-identical results,
  no hedges, never degraded;
* a response that is not flagged ``degraded`` is *exact*: identical
  to the fresh snapshot's own ranking at the latest generation.
  Degraded reads are always tagged — there is no silent staleness.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.robustness.faults import get_profile
from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter
from repro.serve.shards import ShardedIndex

N_SHARDS = 2
N_REPLICAS = 3

#: Built once: snapshots are immutable and the engines are shared by
#: reference, so every example installs the same generation onto its
#: own fresh replica set.
SNAPSHOT = ShardedIndex(n_shards=N_SHARDS).rebuild(
    [
        (
            f"alpha-{i:04d}",
            f"Acme merger acquisition factory widgets product "
            f"launch partnership revenue number {i}",
            f"title {i}",
        )
        for i in range(30)
    ]
)

queries = st.integers(min_value=0, max_value=199).map(
    lambda i: f"merger acquisition v{i}"
)
kill_masks = st.frozensets(
    st.tuples(
        st.integers(0, N_SHARDS - 1), st.integers(0, N_REPLICAS - 1)
    ),
    max_size=N_SHARDS * N_REPLICAS,
)
seeds = st.integers(min_value=0, max_value=7)


def fresh_router(
    hedging: bool = True,
    faulty: bool = False,
    seed: int = 0,
    n_replicas: int = N_REPLICAS,
):
    replicas = ReplicaSet(n_shards=N_SHARDS, n_replicas=n_replicas)
    replicas.install_snapshot(SNAPSHOT)
    router = HedgedRouter(
        replicas,
        hedging=hedging,
        fault_profile=get_profile("lossy") if faulty else None,
        seed=seed,
        tracer=Tracer(clock=FakeClock()),
    )
    return replicas, router


def reference(query: str, top_k: int = 10):
    return tuple(SNAPSHOT.search(query, top_k=top_k))


@given(
    query=queries,
    kills=kill_masks,
    hedging=st.booleans(),
    faulty=st.booleans(),
    seed=seeds,
)
@settings(max_examples=60, deadline=None)
def test_never_more_than_two_in_flight(
    query, kills, hedging, faulty, seed
):
    replicas, router = fresh_router(
        hedging=hedging, faulty=faulty, seed=seed
    )
    for shard, index in kills:
        replicas.kill(shard, index)
    result = router.route(query)
    assert result.max_inflight <= 2
    if not hedging:
        assert result.max_inflight == 1
        assert result.hedges == 0


@given(query=queries, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_fault_free_cluster_matches_single_replica(query, seed):
    _, replicated = fresh_router(seed=seed)
    _, single = fresh_router(seed=seed, n_replicas=1)
    multi_result = replicated.route(query)
    single_result = single.route(query)
    assert multi_result.results == single_result.results
    assert multi_result.results == reference(query)
    assert multi_result.generation == SNAPSHOT.generation
    assert not multi_result.degraded
    assert multi_result.hedges == 0


@given(
    query=queries,
    kills=kill_masks,
    hedging=st.booleans(),
    faulty=st.booleans(),
    seed=seeds,
)
@settings(max_examples=60, deadline=None)
def test_non_degraded_responses_are_exact(
    query, kills, hedging, faulty, seed
):
    """Degraded reads are always tagged — the contrapositive: any
    response NOT tagged must be byte-identical to the fresh snapshot's
    own ranking, whatever the storm did."""
    replicas, router = fresh_router(
        hedging=hedging, faulty=faulty, seed=seed
    )
    for shard, index in kills:
        replicas.kill(shard, index)
    whole_group_down = any(
        group.all_down for group in replicas.groups
    )
    result = router.route(query)
    if whole_group_down:
        # A fully-down group can only answer via the shipping log.
        assert result.degraded
    if not result.degraded:
        assert result.generation == SNAPSHOT.generation
        assert result.results == reference(query)
