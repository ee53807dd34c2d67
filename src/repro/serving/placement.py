"""Placement policies: who owns (and who mirrors) each vertex.

PR 1's :class:`~repro.serving.router.ShardRouter` hard-coded one topology —
a static multiplicative-hash partition of the vertex space.  That spreads
*vertex counts* evenly but says nothing about *load*: a handful of Zipf-hot
vertices can saturate one shard while its neighbors idle, and the paper's
one-stream-one-device evaluation never sees it.  This module turns the
partition into a policy space.

Vocabulary
----------
:class:`VertexHeat`
    The workload signal: per-vertex incident-edge counts over a stream
    range, split into source-side counts (the local work a vertex drags to
    its owner) and destination-side counts (the fan-in that generates
    mailbox forwards).
:class:`Placement`
    The decision, and the live table it becomes: a primary owner per
    vertex plus one holder matrix (owner and replica shards).  The router
    and the memsync cache read this one object and the ownership moves
    mutate it in place; ``replicas`` is a derived view.  Every holder of
    a vertex receives every edge incident to it, so replica tables are
    exactly as fresh as owner tables (the same mailbox guarantee PR 1
    gave owners).
:class:`PlacementPolicy`
    The protocol: ``place(heat, num_shards, profile=None) -> Placement``.
    ``profile`` is the measured per-shard feedback (a sequence with
    ``.utilization`` / ``.offered_load``, i.e. ``ShardStats``) for policies
    that react to a profiling run.

Policies
--------
:class:`StaticHashPlacement`
    PR 1's behavior, extracted: Fibonacci-hash the vertex id.  The baseline
    every other policy starts from.
:class:`LoadAwareRebalance`
    *Two-pass* profile-guided migration: shards whose measured utilization
    exceeds a threshold donate their hottest vertices to the coolest shards
    until the modeled utilization falls below the threshold (or no move
    helps).  The same donate-to-coolest rule also runs *online* — reacting
    mid-run instead of after a profiling pass — as
    :class:`~repro.serving.rebalance.OnlineRebalancer`.
:class:`ReplicatedReadMostly`
    Replicates the highest-fanout read-mostly vertices (destination-heavy
    in the interaction stream) onto every other shard.  Replica
    maintenance is priced honestly: each incident edge is delivered to
    every holder, so ``ServingReport.replication_factor`` counts one copy
    per replica.  The payoff is read locality/freshness — replica rows are
    exact, closing the stale-mirror gap for the replicated (hot) vertices
    — plus failover headroom: a replica is a promotable full copy
    (:meth:`~repro.serving.router.ShardRouter.fail_over`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "VertexHeat", "Placement", "PlacementPolicy",
    "StaticHashPlacement", "LoadAwareRebalance", "ReplicatedReadMostly",
    "HotColdHybrid",
    "PLACEMENT_POLICIES", "make_policy", "hash_assignment",
    "padded_hash_placement", "shard_pair_counts",
]

# LoadAwareRebalance: at most this many vertices move per redeploy, and a
# destination edge weighs this much of a source edge in a vertex's load.
MAX_MIGRATIONS = 64
MAIL_WEIGHT = 0.5
# ReplicatedReadMostly: only vertices whose fan-in share of incident edges
# reaches this are replicated.
MIN_READ_RATIO = 0.6

# 64-bit golden-ratio multiplier (Fibonacci hashing): cheap, deterministic,
# and spreads consecutive ids across shards.  (Moved here from router.py —
# the hash *is* the static placement policy.)
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def hash_assignment(num_nodes: int, num_shards: int) -> np.ndarray:
    """PR 1's static partition: multiplicative hash of the vertex id."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    ids = np.arange(num_nodes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = (ids * _HASH_MULT) >> np.uint64(32)
    return (hashed % np.uint64(num_shards)).astype(np.int64)


def padded_hash_placement(num_nodes: int, active_shards: int,
                          num_shards: int) -> "Placement":
    """An elastic fleet's initial layout: hash over the active prefix.

    Vertices are hash-partitioned across the first ``active_shards``
    stations, but the placement declares ``num_shards`` (the fleet's
    *maximum*) so routers, mailboxes and the memsync cache are sized for
    every station the :class:`~repro.serving.autoscale.AutoScaler` may
    ever activate.  The inactive tail ``[active_shards, num_shards)``
    owns nothing until a split migrates vertices into it — and a station
    owning nothing never receives a sub-job or a mail row, so padding is
    free until used.
    """
    if not 0 < active_shards <= num_shards:
        raise ValueError("need 0 < active_shards <= num_shards")
    return Placement(assignment=hash_assignment(num_nodes, active_shards),
                     num_shards=num_shards, policy="hash")


def shard_pair_counts(from_shards: np.ndarray, to_shards: np.ndarray,
                      num_shards: int) -> np.ndarray:
    """``(S, S)`` count of ``(from, to)`` shard pairs, one per entry."""
    return np.bincount(from_shards * num_shards + to_shards,
                       minlength=num_shards * num_shards
                       ).reshape(num_shards, num_shards)


# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class VertexHeat:
    """Per-vertex workload counts over a stream range.

    ``src_count[v]`` edges leave ``v`` (local work on ``v``'s owner);
    ``dst_count[v]`` edges enter ``v`` (fan-in, the mailbox-forward driver).
    """

    src_count: np.ndarray
    dst_count: np.ndarray

    def __post_init__(self):
        if self.src_count.shape != self.dst_count.shape:
            raise ValueError("src_count/dst_count shape mismatch")

    @classmethod
    def from_graph(cls, graph, start: int = 0,
                   end: int | None = None) -> "VertexHeat":
        """Measure heat over edges ``[start, end)`` of ``graph``."""
        end = graph.num_edges if end is None else min(end, graph.num_edges)
        n = graph.num_nodes
        return cls(
            src_count=np.bincount(graph.src[start:end], minlength=n)
            .astype(np.int64),
            dst_count=np.bincount(graph.dst[start:end], minlength=n)
            .astype(np.int64))

    @property
    def num_nodes(self) -> int:
        return len(self.src_count)

    @property
    def degree(self) -> np.ndarray:
        """Total incident edges per vertex."""
        return self.src_count + self.dst_count

    @property
    def read_ratio(self) -> np.ndarray:
        """Fraction of incident edges entering the vertex (fan-in share).

        Destination-heavy vertices are the "read-mostly" population: their
        state is consulted by many interactions they do not initiate.
        Isolated vertices report 0.
        """
        deg = self.degree
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(deg > 0, self.dst_count / np.maximum(deg, 1),
                             0.0)
        return ratio


# --------------------------------------------------------------------------- #
class Placement:
    """The live ownership table: who owns, and who holds, every vertex.

    ``assignment[v]`` is the primary owner; ``member`` is the boolean
    ``(num_shards, num_nodes)`` holder matrix — row ``s`` is True where
    shard ``s`` keeps a full copy of the vertex's state (owned or
    replicated).  Every holder receives every edge incident to the vertex
    through the mailbox, so replica tables are exact, not stale mirrors.

    Both arrays are stored **once** and mutated in place by the two
    ownership moves (:meth:`~repro.serving.router.ShardRouter.migrate` and
    :meth:`~repro.serving.router.ShardRouter.fail_over`); the router, the
    memsync cache and :meth:`mail_matrix` all read these same objects, so
    there is no second copy to keep in step — and :meth:`incidence` is
    the one statement of which shards an edge reaches.  ``replicas=`` is a
    constructor argument only — ``{vertex: extra holder shards}`` — and
    the :attr:`replicas` / :attr:`replicated_vertices` /
    :attr:`replica_copies` / :meth:`holders` views are derived from
    ``member`` on every read.
    """

    def __init__(self, assignment: np.ndarray, num_shards: int,
                 replicas: dict[int, tuple[int, ...]] | None = None,
                 policy: str = "hash",
                 moved_vertices: tuple[int, ...] = ()):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if len(assignment) and (assignment.min() < 0 or
                                assignment.max() >= num_shards):
            raise ValueError("assignment references a shard out of range")
        self.assignment = assignment
        self.num_shards = num_shards
        self.policy = policy
        self.moved_vertices = moved_vertices    # migrations applied (rebalance)
        self.member = np.zeros((num_shards, len(assignment)), dtype=bool)
        self.member[assignment, np.arange(len(assignment))] = True
        for v, extra in (replicas or {}).items():
            if not 0 <= v < len(assignment):
                raise ValueError(f"replica vertex {v} out of range")
            owner = int(assignment[v])
            if owner in extra or len(set(extra)) != len(extra):
                raise ValueError(
                    f"replica set of vertex {v} must be distinct non-owner "
                    f"shards (owner {owner}, got {extra})")
            if any(s < 0 or s >= num_shards for s in extra):
                raise ValueError(f"replica shard out of range for vertex {v}")
            self.member[list(extra), v] = True

    @property
    def num_nodes(self) -> int:
        return len(self.assignment)

    @property
    def replicas(self) -> dict[int, tuple[int, ...]]:
        """``{vertex: extra holder shards, ascending}`` for every vertex
        held by more than one shard — a fresh view of ``member``."""
        return {int(v): self.holders(v)[1:]
                for v in np.flatnonzero(self.member.sum(axis=0) > 1)}

    @property
    def replicated_vertices(self) -> int:
        """Vertices held by more than one shard."""
        return int((self.member.sum(axis=0) > 1).sum())

    @property
    def replica_copies(self) -> int:
        """Extra copies across all vertices (a vertex on r shards adds r-1)."""
        return int(self.member.sum()) - self.num_nodes

    def holders(self, vertex: int) -> tuple[int, ...]:
        """All shards holding ``vertex`` (primary first, replicas sorted)."""
        owner = int(self.assignment[vertex])
        return (owner, *(s for s in np.flatnonzero(
            self.member[:, vertex]).tolist() if s != owner))

    def incidence(self, src: np.ndarray,
                  dst: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
        """Who receives each edge: ``(to_shard, edge, from_shard)`` triples.

        The one definition of the routing rule: edge ``i`` reaches every
        holder of ``src[i]`` or ``dst[i]``, and it comes *from* the owner
        of its source, ``assignment[src[i]]`` — where it is local
        (``from_shard == to_shard``); everywhere else it is mail.  The
        owner is always a holder (the constructor and both ownership
        moves keep it so), so the source's owner is among the receivers.
        Triples are shard-major and in stream order within a shard.
        """
        to_shard, edge = (self.member[:, src] | self.member[:, dst]).nonzero()
        return to_shard, edge, self.assignment[src][edge]

    def mail_matrix(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Predicted mailbox deliveries ``[from_shard, to_shard]``.

        What :class:`~repro.serving.router.CrossShardMailbox` would count
        had the router split these edges: the non-local :meth:`incidence`
        pairs.  Used to re-price die crossings after a placement change
        (see :func:`repro.hw.plan_shard_dies_traffic_aware`).
        """
        to_shard, _, from_shard = self.incidence(
            np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
        mail = from_shard != to_shard
        return shard_pair_counts(from_shard[mail], to_shard[mail],
                                 self.num_shards)


# --------------------------------------------------------------------------- #
@runtime_checkable
class PlacementPolicy(Protocol):
    """Decides the vertex -> shard placement from workload heat.

    ``profile`` is optional measured feedback: a per-shard sequence exposing
    ``utilization`` and ``offered_load`` (``ShardStats`` satisfies it).
    Policies that do not use feedback must accept and ignore it.
    """

    name: str

    def place(self, heat: VertexHeat, num_shards: int,
              profile: Sequence | None = None) -> Placement:
        ...


class StaticHashPlacement:
    """PR 1's static multiplicative-hash partition (the policy baseline)."""

    name = "hash"

    def place(self, heat: VertexHeat, num_shards: int,
              profile: Sequence | None = None) -> Placement:
        return Placement(assignment=hash_assignment(heat.num_nodes,
                                                    num_shards),
                         num_shards=num_shards, policy=self.name)


class LoadAwareRebalance:
    """Migrate the hottest vertices off shards running above a threshold.

    This is the **two-pass** (profile-then-redeploy) rebalancer: it needs a
    whole profiling run before it can act, and the migration happens at
    deployment time, not during a run.  For traffic whose hot set drifts
    *mid-stream*, use the online path instead —
    :class:`~repro.serving.rebalance.OnlineRebalancer` applies the same
    donate-to-coolest rule per measurement window during the run, with the
    state handoff priced as :class:`~repro.serving.events.MigrationEvent`
    traffic.

    Greedy profile-guided migration: while some shard's modeled utilization
    exceeds ``util_threshold``, move the hottest not-yet-moved vertex from
    the hottest shard to the coolest one.  The model prices a vertex by its
    heat share: moving vertex ``v`` lowers the donor by
    ``load(v) * donor_rate`` and raises the recipient by
    ``load(v) * recipient_rate``, where each shard's rate (utilization per
    unit of heat) comes from the profile — so heterogeneous shard speeds
    are respected.  A move that would leave the recipient no better than
    the donor started is refused, which makes the loop terminate.

    ``profile`` utilization saturates at 1.0 under overload; for saturated
    shards the (uncapped) ``offered_load`` is used instead so the model
    still sees how far past capacity a donor is.

    Without a profile the policy degrades to the hash baseline — there is
    nothing to react to.
    """

    name = "rebalance"

    def __init__(self, util_threshold: float = 0.75):
        # A threshold of inf is never exceeded: nothing would ever move.
        if not 0.0 < util_threshold < math.inf:     # NaN too
            raise ValueError("util_threshold must be positive and finite")
        self.util_threshold = float(util_threshold)

    def place(self, heat: VertexHeat, num_shards: int,
              profile: Sequence | None = None) -> Placement:
        base = hash_assignment(heat.num_nodes, num_shards)
        if profile is None:
            return Placement(assignment=base, num_shards=num_shards,
                             policy=self.name)
        if len(profile) != num_shards:
            raise ValueError("profile must cover every shard")

        util = np.array([float(s.utilization) for s in profile])
        offered = np.array([float(getattr(s, "offered_load", 0.0))
                            for s in profile])
        # Saturated shards hide their true load behind util == 1; offered
        # load is the uncapped estimate of the same quantity.
        est = np.where(util >= 0.999, np.maximum(util, offered), util)

        assignment = base.copy()
        # A vertex costs its owner local work per source edge and mailbox
        # work (on some shard) per destination edge.
        load_v = heat.src_count + MAIL_WEIGHT * heat.dst_count
        shard_load = np.bincount(assignment, weights=load_v,
                                 minlength=num_shards)
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = np.where(shard_load > 0, est / np.maximum(shard_load, 1e-12),
                            0.0)
        loaded = shard_load > 0
        if loaded.any():
            rate[~loaded] = rate[loaded].mean()

        moved: list[int] = []
        immovable: set[int] = set()
        # Donors are the shards the *profile* measured above the threshold
        # — a recipient that warms up during the greedy redistribution is
        # not re-donated (that would cascade moves the measurement never
        # justified).
        donors_allowed = est > self.util_threshold
        while len(moved) < MAX_MIGRATIONS:
            masked = np.where(donors_allowed, est, -np.inf)
            donor = int(np.argmax(masked))
            if masked[donor] <= self.util_threshold:
                break
            on_donor = (assignment == donor)
            candidates = np.where(on_donor, load_v, -1.0)
            for v in immovable:
                if assignment[v] == donor:
                    candidates[v] = -1.0
            v = int(np.argmax(candidates))
            if candidates[v] <= 0:
                donors_allowed[donor] = False   # exhausted; try next donor
                continue
            recipient = int(np.argmin(est))
            d_after = est[donor] - load_v[v] * rate[donor]
            r_after = est[recipient] + load_v[v] * rate[recipient]
            if max(d_after, r_after) >= est[donor]:
                # The donor's hottest vertex is too big to move; try the
                # next one before giving up on this donor.
                immovable.add(v)
                continue
            assignment[v] = recipient
            est[donor], est[recipient] = d_after, r_after
            moved.append(v)
            immovable.add(v)        # never ping-pong a migrated vertex
        return Placement(assignment=assignment, num_shards=num_shards,
                         policy=self.name, moved_vertices=tuple(moved))


class ReplicatedReadMostly:
    """Replicate the highest-fanin read-mostly vertices onto every shard.

    Selection: among vertices whose ``read_ratio`` (fan-in share of
    incident edges) is at least :data:`MIN_READ_RATIO`, take the ``top_k``
    by destination count.  Each selected vertex gains a replica on every
    other shard, listed round-robin after the owner.

    Cost/benefit contract (tested): every holder receives every incident
    edge, so the report's ``replication_factor`` rises by one count per
    replica per incident edge — and in exchange each replica's neighbor
    rows for the vertex are *exact*, not stale mirrors.
    """

    name = "replicate"

    def __init__(self, top_k: int = 8):
        if top_k < 0:
            raise ValueError("top_k must be non-negative")
        self.top_k = int(top_k)

    def place(self, heat: VertexHeat, num_shards: int,
              profile: Sequence | None = None) -> Placement:
        assignment = hash_assignment(heat.num_nodes, num_shards)
        replicas: dict[int, tuple[int, ...]] = {}
        if num_shards >= 2 and self.top_k > 0:
            eligible = (heat.read_ratio >= MIN_READ_RATIO) \
                & (heat.dst_count > 0)
            # Stable hot-first order: by fan-in desc, vertex id asc.
            order = np.lexsort((np.arange(heat.num_nodes),
                                -heat.dst_count))
            chosen = [int(v) for v in order if eligible[v]][:self.top_k]
            for v in chosen:
                owner = int(assignment[v])
                replicas[v] = tuple((owner + i) % num_shards
                                    for i in range(1, num_shards))
        return Placement(assignment=assignment, num_shards=num_shards,
                         replicas=replicas, policy=self.name)


class HotColdHybrid:
    """Hot head on dedicated shards, cold tail on the shared pool.

    The crossover table in ``bench_serving_scale`` says partitioned shards
    win marginal-cost-dominated traffic while a shared queue wins the
    overhead-dominated regime — and a skewed stream contains *both*: a few
    hot vertices carry the bulk of the edges (worth fork-join parallelism
    and dedicated state locality) while a long cold tail trickles per-window
    crumbs onto every shard it touches (worth pooling).  This policy makes
    the two regimes coexist in one placement: the ``hot_top_k`` vertices by
    measured heat are spread over ``num_shards - 1`` dedicated shards
    (heaviest-first onto the least-loaded shard, so hot load balances), and
    every cold vertex maps to the **pool pseudo-shard** — the last shard
    index, which the engine's hybrid topology serves with K replicas behind
    one shared queue instead of a dedicated server.

    Routing falls out of the existing :class:`~repro.serving.router.\
ShardRouter` semantics: hot↔hot edges behave exactly like today's sharded
    topology, cold↔cold edges are local to the pool, and cross-regime edges
    travel the same mailbox (priced per die crossing) in either direction.

    Not registered in :data:`PLACEMENT_POLICIES`: the pool pseudo-shard
    only means something to the hybrid topology, so the engine constructs
    this policy when ``topology="hybrid"`` rather than letting
    ``--placement`` pick it for a partitioned fleet.
    """

    name = "hybrid"

    def __init__(self, hot_top_k: int = 16):
        if hot_top_k <= 0:
            raise ValueError("hot_top_k must be positive")
        self.hot_top_k = int(hot_top_k)

    def place(self, heat: VertexHeat, num_shards: int,
              profile: Sequence | None = None) -> Placement:
        """``num_shards`` counts the pool pseudo-shard: the last index is
        the pool, the first ``num_shards - 1`` are dedicated hot shards."""
        if num_shards < 2:
            raise ValueError(
                "hybrid placement needs at least one dedicated hot shard "
                "plus the pool pseudo-shard (num_shards >= 2)")
        hot_shards = num_shards - 1
        degree = heat.degree
        # Stable hot-first order: by heat desc, vertex id asc.
        order = np.lexsort((np.arange(heat.num_nodes), -degree))
        hot = [int(v) for v in order[:self.hot_top_k] if degree[v] > 0]
        assignment = np.full(heat.num_nodes, hot_shards, dtype=np.int64)
        load = np.zeros(hot_shards)
        for v in hot:   # heaviest first onto the least-loaded hot shard
            s = int(np.argmin(load))
            assignment[v] = s
            load[s] += degree[v]
        return Placement(assignment=assignment, num_shards=num_shards,
                         policy=self.name)


# --------------------------------------------------------------------------- #
PLACEMENT_POLICIES = {
    "hash": StaticHashPlacement,
    "rebalance": LoadAwareRebalance,
    "replicate": ReplicatedReadMostly,
}


def make_policy(name: str, **kwargs) -> PlacementPolicy:
    """Construct a placement policy by CLI name."""
    if name not in PLACEMENT_POLICIES:
        raise KeyError(f"unknown placement policy {name!r}; "
                       f"available: {', '.join(sorted(PLACEMENT_POLICIES))}")
    return PLACEMENT_POLICIES[name](**kwargs)
