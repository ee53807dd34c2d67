"""Placement-driven vertex sharding with a cross-shard mailbox.

Scaling vertex state beyond one device means splitting the Vertex Memory
Table, Mailbox, and Neighbor Table across shards.  The :class:`ShardRouter`
owns the *routing* of each incoming edge batch; the *partition* itself is a
:class:`~repro.serving.placement.Placement` produced by a placement policy
(see :mod:`repro.serving.placement`).  The default is PR 1's static
multiplicative hash, so ``ShardRouter(num_shards, num_nodes)`` behaves
exactly as before.

Routing rule (per edge ``(u, v)``, defined once in
:meth:`Placement.incidence <repro.serving.placement.Placement.incidence>`):
the edge reaches **every holder** of ``u`` or ``v`` — owners and replica
shards alike.  On the shard owning its source, ``assignment[u]``, it is
*local*; every other receiver gets it through the
:class:`CrossShardMailbox`.

One pass per flush
------------------
The paper gets its throughput by replacing per-vertex control with one
pre-segmented streaming pass (FlowGNN argues the same for multi-queue
dataflow), and :meth:`ShardRouter.split` routes a batch the same way: no
loop over shards.  ``member[:, src] | member[:, dst]`` is the whole
``(shard, edge)`` incidence; its ``nonzero()`` lists the pairs shard-major
and in stream order within a shard; one gather of the five edge columns
by the pairs' edge index lays every sub-batch out as a contiguous slice;
local versus mail is ``assignment[src] != shard`` on the same pairs; the
mailbox is credited once; and the memsync protocol is one batch-level
step on the cache.  The cost of a split therefore follows the number of
``(shard, edge)`` pairs, not the number of shards.

That leans on one invariant of the ownership table — **the owner is
always a holder** (``Placement.__init__``, :meth:`ShardRouter.migrate`
and :meth:`ShardRouter.fail_over` all preserve it) — so the holder
incidence alone already contains every edge's local copy.  And it gives
one ordering guarantee: sub-batches come back in ascending shard order,
each in stream order.

Consequently every holder of a vertex sees exactly the edges incident to
it, in stream order.  That gives a hard consistency guarantee for the FIFO
neighbor state: a shard's neighbor-table rows for the vertices it *holds*
(owned or replicated) are identical to the unsharded table's rows (asserted
by the serving and placement tests).

Vertex *memory* rows of non-held endpoints are governed by a separate,
pluggable sync policy (:mod:`repro.serving.memsync`).  The mail can carry
memory-row updates and invalidations alongside the edges: pass a
:class:`~repro.serving.memsync.VersionedMemoryCache` to :meth:`split` and
each :class:`ShardBatch` reports the rows the shard must pull before
processing (``sync_pull``), the owner-pushed rows riding in with its mail
(``sync_push``), and the staleness it tolerated (``stale_reads`` /
``version_lag``).  Policy space: ``none`` keeps PR 1's stale mirrors (and
measures the staleness), ``invalidate`` pulls fresh rows on demand, and
``push`` eagerly forwards owner writes — under the sync policies a holder's
memory rows are exact, not stale mirrors (the bit-identity tests in
``test_memsync``).  The :class:`CrossShardMailbox` prices both kinds of
traffic: ``counts`` for forwarded edges, ``sync_counts`` for transferred
memory rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.temporal_graph import EdgeBatch
from .placement import Placement, hash_assignment, shard_pair_counts

__all__ = ["ShardBatch", "CrossShardMailbox", "ShardRouter"]


_NO_ROWS = np.empty(0, dtype=np.int64)
# One shard's part of a batch sync step when no cache runs one: the fields
# of :class:`~repro.serving.memsync.SyncOutcome`, all empty.
_NO_SYNC = (_NO_ROWS, _NO_ROWS, 0, 0)


@dataclass(frozen=True)
class ShardBatch:
    """The slice of one job a single shard must process.

    The mail and sync fields default to "none": a one-shard router hands
    the whole job to its one shard.
    The ``sync_*`` fields are populated when :meth:`ShardRouter.split` is
    given a memsync cache: ``sync_pull`` are the vertex rows this shard
    must fetch from their owners before processing (priced as mailbox
    round-trips), ``sync_push`` the owner-updated rows delivered alongside
    its mail, and ``stale_reads`` / ``version_lag`` the staleness the
    ``none`` policy tolerated instead.
    """

    shard: int
    batch: EdgeBatch            # local + forwarded edges, chronological
    local_edges: int
    mail_edges: int = 0         # edges forwarded in from other shards
    # (mail_edges,) source shard per forwarded edge
    mail_from: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    sync_pull: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    sync_push: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    stale_reads: int = 0
    version_lag: int = 0


class CrossShardMailbox:
    """Accounting for edges forwarded between shards.

    The mailbox is the consistency mechanism: instead of shards reaching
    into each other's state, every holder of a remote endpoint receives the
    edge and applies it to its own tables.  This class tracks the traffic
    matrix so the engine can price die crossings and report the sharding
    overhead.
    """

    def __init__(self, num_shards: int):
        self.num_shards = int(num_shards)
        self.counts = np.zeros((num_shards, num_shards), dtype=np.int64)
        # Memory rows transferred for cross-shard sync (pulls + pushes),
        # keyed the same way: [owner shard, receiving shard].
        self.sync_counts = np.zeros((num_shards, num_shards), dtype=np.int64)

    def record(self, from_shards: np.ndarray, to_shards: np.ndarray) -> None:
        """Record forwarded edges, one per ``(from, to)`` entry pair."""
        self.counts += shard_pair_counts(from_shards, to_shards,
                                         self.num_shards)

    def record_sync(self, from_shards: np.ndarray, to_shard: int) -> None:
        """Record synced memory rows (one per entry of ``from_shards``)."""
        np.add.at(self.sync_counts,
                  (np.asarray(from_shards, dtype=np.int64), int(to_shard)), 1)

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum())

    @property
    def total_sync_rows(self) -> int:
        return int(self.sync_counts.sum())


class ShardRouter:
    """Routes batches across shards according to a :class:`Placement`.

    ``ShardRouter(num_shards, num_nodes)`` keeps PR 1's behavior (static
    hash, no replication); pass ``placement=`` or use
    :meth:`from_placement` for policy-driven partitions.
    """

    def __init__(self, num_shards: int, num_nodes: int,
                 placement: Placement | None = None):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if placement is None:
            placement = Placement(
                assignment=hash_assignment(num_nodes, num_shards),
                num_shards=int(num_shards))
        if placement.num_shards != num_shards:
            raise ValueError("placement shard count mismatch")
        if placement.num_nodes != num_nodes:
            raise ValueError("placement covers a different vertex count")
        self.num_shards = int(num_shards)
        self.num_nodes = int(num_nodes)
        self.placement = placement
        # The placement is the live ownership table: these are its own
        # arrays, not copies.  Row s of ``_member`` is True where shard s
        # keeps state for the vertex (owned or replicated).
        self.assignment = placement.assignment
        self._member = placement.member
        self._shard_ids = np.arange(self.num_shards + 1)

    @classmethod
    def from_placement(cls, placement: Placement) -> "ShardRouter":
        return cls(placement.num_shards, placement.num_nodes,
                   placement=placement)

    def shard_of(self, vertices: np.ndarray) -> np.ndarray:
        """Primary owner of each vertex (replicas are extra holders)."""
        return self.assignment[np.asarray(vertices, dtype=np.int64)]

    def migrate(self, vertices: np.ndarray, to_shard: int) -> np.ndarray:
        """Reassign ownership of ``vertices`` to ``to_shard``, mid-run.

        The online-rebalancing primitive: mutates the live placement (its
        assignment and holder matrix) in place, so the very next
        :meth:`split` — and every other reader of the table — sees the new
        ownership.  Ownership stays exactly-once by construction — one
        assignment entry per vertex, flipped atomically inside a single
        event handler.

        The new owner becomes a holder.  An old owner that was the
        vertex's **lone holder** stops holding it; a **replicated**
        vertex's old owner — whose copy is exact at handoff time, since
        holders see every incident edge — simply stays a holder, so the
        number of holders never shrinks mid-move.
        This is the routing side only.  The one caller on the serving
        paths is :func:`repro.serving.memsync.hand_off`, which pairs this
        flip with the memsync cache's mirror stamps; moving and pricing
        the state rows stays with *its* callers.

        Returns the previous owner of each vertex.
        """
        v = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(v) and (v.min() < 0 or v.max() >= self.num_nodes):
            raise ValueError("vertex out of range")
        if not 0 <= int(to_shard) < self.num_shards:
            raise ValueError("to_shard out of range")
        old = self.assignment[v].copy()
        lone = self._member[:, v].sum(axis=0) == 1
        self._member[old[lone], v[lone]] = False
        self.assignment[v] = int(to_shard)
        self._member[int(to_shard), v] = True
        return old

    def fail_over(self, dead: int,
                  live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evacuate ownership off a dead shard whose state is lost.

        ``live`` is the caller's boolean mask of shards that may receive
        ownership (``dead`` is struck from it here): the router cannot
        know which other shards are down or outside an elastic fleet's
        active prefix.  The dead shard's row of the holder matrix is
        cleared — it holds nothing afterwards, owned or replicated.
        Every vertex it owned gets a live owner at this instant: one with
        a live holder **promotes** the lowest-id one — a replica is a
        full holder, so the new owner's state is already exact and
        nothing moves — while the rest are reassigned round-robin across
        the live shards and must be **rebuilt** by the caller (memsync
        replay from peers; see :func:`repro.serving.memsync.fail_over`,
        which also picks the rebuild sources *before* this flip names
        the still empty-handed new owners holders).

        Returns ``(promoted, rebuilt)`` vertex-id arrays.
        """
        dead = int(dead)
        if not 0 <= dead < self.num_shards:
            raise ValueError("dead shard out of range")
        live = np.array(live, dtype=bool)
        live[dead] = False
        survivors = np.flatnonzero(live)
        if not len(survivors):
            raise ValueError("cannot fail over the only live shard")
        owned = np.flatnonzero(self.assignment == dead)
        self._member[dead, :] = False
        holders = self._member[:, owned] & live[:, None]
        survives = holders.any(axis=0)
        promoted, rebuilt = owned[survives], owned[~survives]
        self.assignment[promoted] = holders[:, survives].argmax(axis=0)
        self.assignment[rebuilt] = survivors[rebuilt % len(survivors)]
        self._member[self.assignment[rebuilt], rebuilt] = True
        return promoted, rebuilt

    def split(self, batch: EdgeBatch,
              mailbox: CrossShardMailbox | None = None,
              cache=None) -> list[ShardBatch]:
        """Partition ``batch`` into per-shard sub-batches, in one pass.

        An edge appears on its source's owner (local) and on every other
        holder of either endpoint (mail) — with no replication that is
        exactly the two owners.  Sub-batches come back in ascending shard
        order, each in stream order; shards with no incident edge are
        omitted, and an empty batch returns ``[]``.

        :meth:`Placement.incidence` lists the ``(shard, edge)`` pairs
        shard-major (the owner is always a holder, so the local copies
        are among them): one gather of the five edge columns by the
        pairs' edge index lays every sub-batch out as a contiguous slice,
        and the mail pairs — those whose source is owned elsewhere — are
        a second run of contiguous slices, credited to ``mailbox`` once.

        With a :class:`~repro.serving.memsync.VersionedMemoryCache` as
        ``cache``, the split also runs the batch's sync step
        (:meth:`~repro.serving.memsync.VersionedMemoryCache.sync_batch`:
        every shard's endpoint reads against the pre-batch versions, then
        the batch's owner writes) and attaches the resulting pull/push
        row sets (ascending vertex ids) and staleness counts to each
        :class:`ShardBatch`.  The caller prices (or, in a functional
        replay, actually transfers) those rows; ``split`` itself never
        touches vertex state.

        A one-shard router owns every vertex, so nothing can be mail and
        no copy can be stale: the batch itself is the one sub-batch and
        the pass above is skipped.
        """
        if self.num_shards == 1:
            return [ShardBatch(0, batch, len(batch))] if len(batch) else []
        to_shard, edge, from_shard = self.placement.incidence(batch.src,
                                                              batch.dst)
        src, dst = batch.src[edge], batch.dst[edge]
        t, eid, feat = batch.t[edge], batch.eid[edge], batch.edge_feat[edge]
        mail = (from_shard != to_shard).nonzero()[0]
        mail_from, mail_to = from_shard[mail], to_shard[mail]
        # Both runs are shard-major: shard s's slice ends where shard s + 1
        # would begin.
        bounds = to_shard.searchsorted(self._shard_ids).tolist()
        mail_bounds = mail_to.searchsorted(self._shard_ids).tolist()
        if mailbox is not None:
            mailbox.record(mail_from, mail_to)
        sync = {}
        if cache is not None:
            # Column j of ``reads`` is endpoint ``rows[j]``; row s marks
            # the endpoints of shard s's sub-batch.
            rows = np.unique(batch.nodes)
            reads = np.zeros((self.num_shards, len(rows)), dtype=bool)
            reads[to_shard, rows.searchsorted(src)] = True
            reads[to_shard, rows.searchsorted(dst)] = True
            sync = cache.sync_batch(rows, reads)
        out = []
        for shard in range(self.num_shards):
            lo, hi = bounds[shard], bounds[shard + 1]
            if lo == hi:
                continue
            mail_lo, mail_hi = mail_bounds[shard], mail_bounds[shard + 1]
            pulled, pushed, stale_reads, max_lag = sync.get(shard, _NO_SYNC)
            out.append(ShardBatch(
                shard=shard,
                batch=EdgeBatch(src=src[lo:hi], dst=dst[lo:hi], t=t[lo:hi],
                                eid=eid[lo:hi], edge_feat=feat[lo:hi]),
                local_edges=(hi - lo) - (mail_hi - mail_lo),
                mail_edges=mail_hi - mail_lo,
                mail_from=mail_from[mail_lo:mail_hi],
                sync_pull=pulled, sync_push=pushed,
                stale_reads=stale_reads, version_lag=max_lag))
        return out
