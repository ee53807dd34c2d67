"""The functional oracle of cross-shard memory sync: a sharded TGNN replay.

:mod:`repro.serving.memsync` only *prices* coherence: the serving engine
runs :class:`~repro.serving.memsync.VersionedMemoryCache` inside the
router's plans (``ShardRouter.plan``) and charges the rows it names.  This
module executes
those rows.  :class:`ShardedRuntime` drives
:meth:`~repro.models.tgn.TGNN.update_memory` and
:meth:`~repro.models.tgn.TGNN.embed` as two phases per batch, one
:class:`~repro.models.tgn.ModelRuntime` per shard, synchronizing endpoint
rows before the memory stage and neighbor-memory rows between the stages
(DGNN-Booster's inter-stage forwarding, in software).  With
``policy='push'`` (or ``'invalidate'``) every row a shard reads equals the
unsharded value bit-for-bit, so held vertices' memory tables and
embeddings are bit-identical to one unsharded runtime — which proves the
priced protocol exact.

It calls the production ``ShardRouter.split(cache=)``,
``VersionedMemoryCache``, ``hand_off`` and ``fail_over``, so a coherence
rule broken there breaks the exactness tests that replay through it
(``test_memsync``, ``test_rebalance``, ``test_failover``,
``test_autoscale``).  It trusts its caller: it checks no input.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.temporal_graph import EdgeBatch
from repro.serving import (HANDOFF_ROWS_PER_VERTEX, CrossShardMailbox,
                           Placement, ShardRouter, VersionedMemoryCache)
from repro.serving.memsync import fail_over, hand_off


_EMPTY = np.empty(0, dtype=np.int64)


class Outcome(NamedTuple):
    """What one shard's part of a sync step cost under the cache's policy."""

    pulled: np.ndarray = _EMPTY  # rows to fetch from their owners first
    pushed: np.ndarray = _EMPTY  # owner-updated rows riding in with the mail
    stale_reads: int = 0        # reads served from a stale mirror (none)
    max_lag: int = 0            # largest version lag among those reads


def step(cache: VersionedMemoryCache, v: np.ndarray, reads: np.ndarray,
         write: bool) -> dict[int, Outcome]:
    """Reads, then (``write``) the owner writes, on the columns ``v``.

    The per-job step the library's closed form
    (``VersionedMemoryCache.steps``) replaced, verbatim but for taking the
    cache as an argument and leaving the counting to its caller (the cache
    keeps no totals): the split oracle runs it with ``write=True``,
    :func:`note_reads` with ``write=False``.

    The one implementation of both rules.  The ``[:, v]`` sub-matrices
    are gathered once, updated in place and scattered back once;
    ``reads[s, j]`` marks shard ``s`` reading ``v[j]``, and a shard is
    *present* when its row has any.

    Read rule: holders are never stale; a non-holder's read is stale
    when its stamp lags the owner version.  Under ``none`` stale reads
    are only counted; under ``invalidate`` and ``push`` every stale
    row is pulled from its owner and the mirror stamped current.

    Write rule: every column is written exactly once — its version
    bumps, and its holders observe the event and stay current.  Under
    ``push`` the updated rows are forwarded to the lagging mirrors
    among the present shards (those receiving this job's mail);
    absent mirrors simply lag and repair through the pull fallback on
    their next read.
    """
    holder = cache._holder.take(v, axis=1)
    version = cache.version[v]
    stamp = cache.mirror_version.take(v, axis=1)
    mirror = cache._mirror.take(v, axis=1)
    present = reads.any(axis=1)
    stale = reads & ~holder & (stamp < version)
    if cache.policy == "none":
        n = np.count_nonzero(stale, axis=1).tolist()
        worst = (version - stamp).max(axis=1, where=stale,
                                      initial=0).tolist()
    else:
        np.copyto(stamp, version, where=stale)
        mirror |= stale
    pushed = None
    if write:
        version += 1
        current = holder
        if cache.policy == "push":
            # Every stamp ever written is a then-current version, so
            # none exceeds its owner's: after the bump every present
            # non-holder mirror lags and takes the push.
            pushed = present[:, None] & mirror & ~holder
            current = holder | pushed
        np.copyto(stamp, version, where=current)
    cache.version[v] = version
    cache.mirror_version[:, v] = stamp
    cache._mirror[:, v] = mirror
    shards = present.nonzero()[0].tolist()
    if cache.policy == "none":
        return {s: Outcome(stale_reads=n[s], max_lag=worst[s])
                for s in shards}
    return {s: Outcome(pulled=v[stale[s]], pushed=_EMPTY
                       if pushed is None else v[pushed[s]])
            for s in shards}


class OracleMailbox(CrossShardMailbox):
    """The production mailbox plus the memory-row tally the oracle keeps:
    ``sync_counts[owner, receiver]`` counts rows transferred for
    cross-shard sync (pulls, pushes, handoffs), keyed like ``counts``."""

    def __init__(self, num_shards: int):
        super().__init__(num_shards)
        self.sync_counts = np.zeros((num_shards, num_shards), dtype=np.int64)

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


def note_reads(cache: VersionedMemoryCache, shard: int,
               vertices: np.ndarray) -> Outcome:
    """Account one shard's read-set outside a batch step (a later read
    phase of the same batch); returns the rows it must pull."""
    v = np.unique(np.asarray(vertices, dtype=np.int64))
    reads = np.zeros((cache.num_shards, len(v)), dtype=bool)
    reads[shard] = True
    return step(cache, v, reads, write=False).get(shard, Outcome())


class ShardedRuntime:
    """Functional sharded TGNN replay with versioned memory sync.

    One :class:`~repro.models.tgn.ModelRuntime` per shard, a router
    splitting each chronological batch, and the two-phase per-batch drive
    that makes cross-shard reads exact:

    1. *endpoint sync* — each involved shard pulls the stale rows of its
       sub-batch's endpoints (the rows the GRU and mail refresh read);
    2. *memory stage* — :meth:`~repro.models.tgn.TGNN.update_memory` per
       shard (every shard computes the same update for a shared endpoint,
       because the update depends only on the synced pre-batch rows);
    3. *owner writes* — versions bump once per batch vertex; under
       ``push`` the owners' fresh rows are delivered to present mirrors;
    4. *neighbor sync* — each shard pulls the stale memory rows of the
       temporal neighbors its attention will gather (the inter-stage state
       forwarding of DGNN-Booster, in software);
    5. *embedding stage* — :meth:`~repro.models.tgn.TGNN.embed` per shard.

    With ``policy='push'`` or ``'invalidate'`` the held vertices' memory
    tables and embeddings are bit-identical to an unsharded replay;
    ``'none'`` reproduces the stale-mirror divergence memsync exists to
    close (and measures it).

    :meth:`migrate` is the online-rebalancing hook: ownership moves
    between batches with the full state handoff (memory rows +
    neighbor-table slices + version-counter transfer), and the exactness
    guarantee above survives the move — the acceptance suite in
    ``tests/unit/test_rebalance.py``.  :meth:`fail_shard` /
    :meth:`recover_shard` are the failure-injection hooks: a dead shard's
    state is scrubbed, replicated vertices promote an exact replica,
    unreplicated ones are rebuilt from peers + the durable edge log, and
    recovery fails the snapshot back — with the same bit-identity
    guarantee once recovered (``tests/unit/test_failover.py``).
    """

    def __init__(self, model, graph, num_shards: int | None = None,
                 placement: Placement | None = None, policy: str = "push"):
        self.router = ShardRouter.from_placement(placement) \
            if placement is not None \
            else ShardRouter(num_shards, graph.num_nodes)
        self.model = model
        self.graph = graph
        self.cache = VersionedMemoryCache(self.router.placement,
                                          policy=policy)
        self.mailbox = OracleMailbox(self.router.num_shards)
        # float64, as every process_batch caller's.
        self.runtimes = [model.new_runtime(graph, np.float64)
                         for _ in range(self.router.num_shards)]
        # Failure-injection bookkeeping: the stream position already
        # replayed (the durable edge-log horizon ring rebuilds replay to)
        # and, per failed shard, the ownership snapshot recovery restores.
        self._eid_horizon = 0
        self._failed: dict[int, np.ndarray] = {}
        # The sync traffic the replay moved and the staleness it served,
        # summed over the sub-batches of every split and every note_reads.
        self.pulled_rows = self.pushed_rows = 0
        self.stale_reads = self.max_version_lag = 0

    @property
    def sync_rows(self) -> int:
        """Total rows transferred between shards (pulls + pushes)."""
        return self.pulled_rows + self.pushed_rows

    def _count(self, pulled, pushed, stale_reads: int, lag: int) -> None:
        self.pulled_rows += len(pulled)
        self.pushed_rows += len(pushed)
        self.stale_reads += stale_reads
        self.max_version_lag = max(self.max_version_lag, lag)

    # ------------------------------------------------------------------ #
    def _transfer(self, vertices: np.ndarray, to_shard: int) -> None:
        """Copy full state rows from each vertex's owner to ``to_shard``."""
        if not len(vertices):
            return
        owners = self.router.assignment[vertices]
        self.mailbox.record_sync(owners, to_shard)
        dst = self.runtimes[to_shard].state
        for owner in np.unique(owners):
            rows = vertices[owners == owner]
            dst.copy_rows(self.runtimes[owner].state, rows)

    def migrate(self, vertices, to_shard: int) -> int:
        """Move ownership of ``vertices`` to ``to_shard`` between batches,
        with the full state handoff an online migration performs.

        Three transfers make the new owner exact (and keep every
        subsequent replay bit-identical to the unsharded runtime under the
        sync policies):

        1. *memory rows* — memory, mailbox, mail-time, and last-update
           rows copied from the old owner, whose rows are exact because it
           held the vertex;
        2. *neighbor-table slice* — the vertex's FIFO ring (neighbors,
           edge ids, times, head, count) copied verbatim, so the new
           owner's gathered neighbor lists equal the unsharded table's;
        3. *ownership flip* — :func:`~repro.serving.memsync.hand_off`
           reroutes the vertices and stamps the new owner current while
           downgrading the old owner to an up-to-date mirror, so version
           counters stay exact across the ownership change.

        The handoff is priced like sync traffic: ``HANDOFF_ROWS_PER_VERTEX``
        rows per vertex recorded in the mailbox's ``sync_counts``.
        Replicated vertices migrate too: the old owner stays a holder
        (it keeps receiving every incident edge).  Returns the number of
        vertices actually moved (those not already owned by ``to_shard``).
        """
        v = np.unique(np.asarray(vertices, dtype=np.int64))
        owners = self.router.assignment[v]
        v = v[owners != int(to_shard)]
        owners = owners[owners != int(to_shard)]
        if not len(v):
            return 0
        dst_state = self.runtimes[to_shard].state
        dst_table = self.runtimes[to_shard].sampler.table
        for owner in np.unique(owners):
            rows = v[owners == owner]
            dst_state.copy_rows(self.runtimes[owner].state, rows)
            dst_table.copy_rows(self.runtimes[owner].sampler.table, rows)
            self.mailbox.record_sync(
                np.repeat(owner, len(rows) * HANDOFF_ROWS_PER_VERTEX),
                to_shard)
        hand_off(self.router, self.cache, v, owners, to_shard)
        return len(v)

    # ------------------------------------------------------------------ #
    def _replay_rings(self, vertices: np.ndarray) -> None:
        """Rebuild lost FIFO rings by replaying the durable edge log.

        A vertex's ring is a pure function of its incident-edge history in
        stream order (:meth:`~repro.graph.neighbor_table.NeighborTable.\
insert_edges` groups per vertex, keeps the newest ``mr``, and advances
        the head by the total insertion count), so replaying edges
        ``[0, eid_horizon)`` into a reset row reproduces the lost
        holder's row **bit-for-bit** — same slots, same head, same count —
        not merely the same logical neighbor set.
        """
        if not len(vertices):
            return
        h = self._eid_horizon
        src = self.graph.src[:h]
        dst = self.graph.dst[:h]
        eid = np.arange(h, dtype=np.int64)
        t = self.graph.t[:h]
        # The interleaved endpoint stream insert_edges would have built:
        # element 2i is (src -> dst), 2i+1 its (dst -> src) twin.
        vs = np.empty(2 * h, dtype=np.int64)
        ps = np.empty(2 * h, dtype=np.int64)
        es = np.empty(2 * h, dtype=np.int64)
        ts = np.empty(2 * h, dtype=np.float64)
        vs[0::2], vs[1::2] = src, dst
        ps[0::2], ps[1::2] = dst, src
        es[0::2], es[1::2] = eid, eid
        ts[0::2], ts[1::2] = t, t
        owners = self.router.assignment[vertices]
        for owner in np.unique(owners):
            rows = vertices[owners == owner]
            table = self.runtimes[owner].sampler.table
            table.reset(rows)
            sel = np.isin(vs, rows)
            if sel.any():
                table._insert(vs[sel], ps[sel], es[sel], ts[sel])

    def fail_shard(self, shard: int) -> dict[str, int]:
        """Fail-stop ``shard`` — its state is lost — and evacuate exactly.

        Ownership moves via :func:`~repro.serving.memsync.fail_over` onto
        the shards that are not themselves failed: replicated vertices
        *promote* a surviving replica (a full holder, so its memory rows
        and FIFO ring are already exact and no state moves), unreplicated
        vertices get a surviving owner and are *rebuilt* — the
        vertex-state row copied from the lowest surviving shard that held
        a current copy before the failover (see
        :meth:`~repro.serving.memsync.VersionedMemoryCache.current_peer`),
        the FIFO ring replayed bit-exactly from the durable edge log (see
        :meth:`_replay_rings`), ``HANDOFF_ROWS_PER_VERTEX`` rows per
        vertex recorded in the mailbox like any other transfer.  Vertices
        with a write history but no surviving current copy are counted
        ``cold``: their ring is rebuilt but their memory rows restart from
        zero — genuinely lost data, which the exactness suite pins to zero
        for the coverage it certifies.

        The dead runtime is scrubbed and the ownership snapshot kept so
        :meth:`recover_shard` can fail back.  Returns ``{"promoted",
        "rebuilt", "cold", "rows"}`` counts.
        """
        shard = int(shard)
        live = np.ones(self.router.num_shards, dtype=bool)
        live[list(self._failed)] = False
        owned_before, promoted, rebuilt, peers = \
            fail_over(self.router, self.cache, shard, live)
        rows = 0
        cold = 0
        for x, peer in zip(rebuilt.tolist(), peers.tolist()):
            new_owner = int(self.router.assignment[x])
            dst = self.runtimes[new_owner].state
            if peer < 0:
                # No surviving current copy: fresh-vertex rows are exactly
                # this (version 0); written vertices are honestly cold.
                if self.cache.version[x] > 0:
                    cold += 1
                dst.reset(x)
            else:
                dst.copy_rows(self.runtimes[peer].state, x)
                self.mailbox.record_sync(
                    np.repeat(peer, HANDOFF_ROWS_PER_VERTEX), new_owner)
                rows += HANDOFF_ROWS_PER_VERTEX
        self._replay_rings(rebuilt)
        # The whole premise: the dead shard's state is gone.
        self.runtimes[shard].reset()
        self._failed[shard] = owned_before
        return {"promoted": len(promoted), "rebuilt": len(rebuilt),
                "cold": cold, "rows": rows}

    def recover_shard(self, shard: int) -> int:
        """Fail the snapshot back: the recovered shard re-owns everything
        it owned at failure time through the ordinary exact migration path
        (state rows + ring slices copied from the interim owners, priced
        as handoff rows).  Promoted replicas demote back into the replica
        set; interim owners of rebuilt vertices give them up.  Returns the
        number of vertices failed back.
        """
        shard = int(shard)
        return self.migrate(self._failed.pop(shard), shard)

    def process_batch(self, batch: EdgeBatch) -> dict[int, "BatchResult"]:
        """Process one chronological batch across all shards.

        Returns ``{shard: BatchResult}`` for every shard with incident
        edges.  Only the rows of *held* query vertices are exact under the
        sync policies; non-held rows are computed against that shard's
        partial neighbor table (exactly as in deployment, where a shard
        answers queries only for the vertices it holds).
        """
        if len(batch.eid):
            self._eid_horizon = max(self._eid_horizon,
                                    int(batch.eid.max()) + 1)
        subs = self.router.split(batch, self.mailbox, cache=self.cache)
        # Endpoint sync happened inside split (phase 1): apply the pulls
        # before any shard's memory stage reads the rows.
        for sb in subs:
            self._count(sb.sync_pull, sb.sync_push, sb.stale_reads,
                        sb.version_lag)
            self._transfer(sb.sync_pull, sb.shard)
        updates = {sb.shard: self.model.update_memory(
            sb.batch, self.runtimes[sb.shard]) for sb in subs}
        # Owner writes are exact now; deliver the push rows (phase 3).
        for sb in subs:
            self._transfer(sb.sync_push, sb.shard)
        # Neighbor sync (phase 4): the attention gathers the pre-insertion
        # FIFO neighbors and reads their *memory* rows, which other shards
        # may have rewritten this very batch.  The gather is reused by the
        # embedding stage (the table only changes at insert time, inside
        # ``embed``).
        k = self.model.cfg.num_neighbors
        gathers = {}
        for sb in subs:
            g = self.runtimes[sb.shard].sampler.gather(sb.batch.nodes, k)
            gathers[sb.shard] = g
            out = note_reads(self.cache, sb.shard, g.nbrs[g.mask])
            self._count(*out)
            self._transfer(out.pulled, sb.shard)
        return {sb.shard: self.model.embed(
            sb.batch, self.runtimes[sb.shard], self.graph,
            updates[sb.shard], gathered=gathers[sb.shard]) for sb in subs}

    def held_vertices(self, shard: int) -> np.ndarray:
        """Vertex ids shard ``shard`` holds (owned or replicated)."""
        return np.flatnonzero(self.router._member[shard])
