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
  Degraded reads are always tagged — there is no silent staleness;
* every answer, degraded or not, is its generation's full ranking
  restricted to the shards that answered, through any history of
  snapshot shipping, kills and lagging restores.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.clock import FakeClock
from repro.obs.tracer import Tracer
from repro.robustness.faults import get_profile
from repro.serve.replication import ReplicaSet
from repro.serve.router import HedgedRouter
from repro.serve.shards import ShardedIndex, shard_of

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
        not group.up_replicas() for group in replicas.groups
    )
    result = router.route(query)
    if whole_group_down:
        # A fully-down group can only answer via the shipping log.
        assert result.degraded
    if not result.degraded:
        assert result.generation == SNAPSHOT.generation
        assert result.results == reference(query)


def history_of_generations(n: int) -> dict:
    """Generation -> snapshot: an empty generation 0, then ``n``
    generations, each extending the last with new documents."""
    index = ShardedIndex(n_shards=N_SHARDS)
    snapshots = {0: index.snapshot}
    for generation in range(1, n + 1):
        snapshot = index.extend(
            (
                f"gen{generation}-{i:02d}",
                f"Acme merger acquisition revenue v{i} "
                f"{'growth ' * (i % 3)}round {generation}",
                "",
            )
            for i in range(8)
        )
        snapshots[generation] = snapshot
    return snapshots


GENERATIONS = history_of_generations(4)

cluster_ops = st.lists(
    st.one_of(
        st.just(("ship",)),
        st.tuples(
            st.just("kill"),
            st.integers(0, N_SHARDS - 1),
            st.integers(0, N_REPLICAS - 1),
        ),
        st.tuples(
            st.just("restore"),
            st.integers(0, N_SHARDS - 1),
            st.integers(0, N_REPLICAS - 1),
            st.booleans(),
        ),
    ),
    max_size=16,
)


def restricted(generation: int, query: str, live: set, top_k: int = 10):
    """The generation's full ranking, keeping only ``live`` shards."""
    snapshot = GENERATIONS[generation]
    return tuple(
        result
        for result in snapshot.search(query, top_k=snapshot.n_docs)
        if shard_of(result.doc_key, N_SHARDS) in live
    )[:top_k]


#: Group 0's only up replica lags at generation 1 while group 1 holds
#: only generations 3 and 4, so shard 1 has no source at the target.
LAGGING_GROUP = [
    ("kill", 0, 0), ("ship",), ("ship",), ("ship",),
    ("restore", 0, 0, False), ("kill", 0, 1), ("kill", 0, 2),
]


def run_cluster(ops, query, hedging=True, faulty=False, seed=0):
    """Ship generation 1, apply ``ops``, route ``query`` once."""
    replicas = ReplicaSet(
        n_shards=N_SHARDS, n_replicas=N_REPLICAS, history=2
    )
    router = HedgedRouter(
        replicas,
        hedging=hedging,
        fault_profile=get_profile("lossy") if faulty else None,
        seed=seed,
        tracer=Tracer(clock=FakeClock()),
    )
    replicas.install_snapshot(GENERATIONS[1])
    shipped = 1
    for op in ops:
        if op[0] == "ship" and shipped < len(GENERATIONS) - 1:
            shipped += 1
            replicas.install_snapshot(GENERATIONS[shipped])
        elif op[0] == "kill":
            replicas.kill(op[1], op[2])
        elif op[0] == "restore":
            replicas.restore(op[1], op[2], catch_up=op[3])
    return router.route(query), shipped


def test_a_shard_without_a_source_is_left_out_and_flagged():
    result, _ = run_cluster(LAGGING_GROUP, "merger")
    assert result.generation == 1
    assert result.missing_shards == (1,)
    assert result.degraded
    assert result.results
    assert result.results == restricted(1, "merger", {0})


@given(
    ops=cluster_ops,
    query=st.sampled_from(
        ["merger", "revenue growth", '"acme merger" v3', "round 2"]
    ),
    hedging=st.booleans(),
    faulty=st.booleans(),
    seed=seeds,
)
@example(
    ops=LAGGING_GROUP, query="merger", hedging=True, faulty=False, seed=0
)
@settings(max_examples=150, deadline=None)
def test_every_answer_is_the_ranking_restricted_to_live_shards(
    ops, query, hedging, faulty, seed
):
    result, shipped = run_cluster(ops, query, hedging, faulty, seed)
    live = set(range(N_SHARDS)) - set(result.missing_shards)
    assert result.results == restricted(result.generation, query, live)
    if result.missing_shards or result.generation < shipped:
        assert result.degraded
