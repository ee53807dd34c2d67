"""Versioned cross-shard memory synchronization: exact (not stale) reads.

PR 1's mailbox makes neighbor *tables* exact on every holder, but a shard's
vertex-memory rows for non-held endpoints are stale mirrors: the GRU inputs
and the attention's neighbor-memory gathers silently read values that
diverge from the unsharded runtime.  The source paper never meets this bug
— its co-design keeps the whole Vertex Memory Table coherent on one device
— but streaming accelerators that scale out do: FlowGNN forwards state
through multi-queue streams and DGNN-Booster forwards on-chip state between
pipeline stages.  This module is the distributed-software analogue: a
write-versioned memory cache with pluggable coherence policies, priced
through the same mailbox that already carries cross-shard edges.

Vocabulary
----------
owner write
    A vertex's state rows (memory, mailbox, timestamps) change exactly once
    per batch the vertex appears in; the primary owner always participates
    (it holds the vertex, so the mailbox delivers every incident edge), so
    each such event bumps the vertex's version counter by one.
mirror
    Any non-holder shard that has received the vertex's rows keeps a cached
    copy — a mirror — stamped with the version it received.  A mirror whose
    stamp lags the owner's version is *stale*.
holder
    Owner or replica (see :class:`~repro.serving.placement.Placement`).
    Holders receive every incident edge and therefore observe every write
    event; their rows are never version-stale.

Policies
--------
``none``
    Today's behavior, kept as the explicit baseline: mirrors are never
    refreshed.  The cache still *counts* — ``stale_reads`` and
    ``max_version_lag`` quantify the staleness the deployment tolerates.
``invalidate``
    Write-invalidate: an owner write implicitly invalidates remote mirrors
    (the version stamp lags; invalidation notices piggyback on the edge
    mail and are not counted as row traffic).  A shard reading an invalid
    row pulls the fresh row from the owner — one mailbox round-trip (the
    row transfer counts once in ``sync_counts``; the latency is priced at
    two hops, request + response).
``push``
    Write-update: owner writes eagerly forward the updated rows to every
    mirror holder that receives mail in the same job — the rows ride
    alongside the existing edge mail (one hop each).  Mirrors that sat out
    the job fall back to a pull on their next read, so reads are exact
    under both sync policies; the policies differ in traffic volume and in
    where the latency lands (eager one-hop deliveries vs read-blocking
    round-trips).

Version counters measure *event currency*, not value fidelity: under
``none`` a mirror locally rewritten from a partial edge view is still
tainted (its inputs were stale), so local writes never mark a mirror
current — only a sync delivery does.  Under ``invalidate``/``push`` every
row is repaired before use, which is why the two-phase replay below is
bit-exact.

Exactness
---------
The serving engine does not run the functional protocol (backends are
opaque timing models); it runs :class:`VersionedMemoryCache` at endpoint
granularity to *price* the sync traffic (``ServingReport.sync_edges`` /
``stale_reads`` / ``max_version_lag``, cross-die transfers charged via
``mail_hop_s``).  The functional replay that proves the pricing exact is
the tests' oracle, ``ShardedRuntime`` in
``tests/property/sharded_oracle.py``: it drives
:meth:`~repro.models.tgn.TGNN.update_memory` and
:meth:`~repro.models.tgn.TGNN.embed` as two phases per batch through this
module's cache, :func:`hand_off` and :func:`fail_over`, synchronizing
endpoint rows before the memory stage and neighbor-memory rows between the
stages (DGNN-Booster's inter-stage forwarding, in software).  With
``memsync='push'`` (or ``'invalidate'``) every row a shard reads equals the
unsharded value bit-for-bit, so held vertices' memory tables and embeddings
are bit-identical to the unsharded :class:`~repro.models.tgn.ModelRuntime`
— the acceptance test of this subsystem.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .placement import Placement
from .router import ShardRouter

__all__ = ["MEMSYNC_POLICIES", "HANDOFF_ROWS_PER_VERTEX", "SyncOutcome",
           "VersionedMemoryCache", "hand_off", "fail_over"]

MEMSYNC_POLICIES = ("none", "invalidate", "push")

# State rows :func:`hand_off` moves per vertex: its vertex-memory row
# (memory + mailbox + timestamps travel as one row, exactly as memsync
# prices a pull/push) plus its neighbor-table slice (the mr-slot FIFO ring
# moves as one packed row).  The serving engine prices this count; the
# functional ShardedRuntime in tests/property/sharded_oracle.py actually
# copies both and records the same count.
HANDOFF_ROWS_PER_VERTEX = 2

_EMPTY = np.empty(0, dtype=np.int64)


class SyncOutcome(NamedTuple):
    """What one shard's part of a sync step cost under the cache's policy."""

    pulled: np.ndarray = _EMPTY  # rows to fetch from their owners first
    pushed: np.ndarray = _EMPTY  # owner-updated rows riding in with the mail
    stale_reads: int = 0        # reads served from a stale mirror (none)
    max_lag: int = 0            # largest version lag among those reads


class VersionedMemoryCache:
    """Per-vertex version counters + per-shard mirror stamps.

    Pure accounting: callers drive :meth:`sync_batch` once per batch, in
    stream order, and act on the returned pull/push vertex sets (the
    engine prices them; the functional oracle in
    ``tests/property/sharded_oracle.py`` actually copies the rows).  The
    matrices are ``(num_shards, num_nodes)`` — fine at simulation scale;
    a deployment would keep per-shard sparse maps.

    :meth:`_step` holds the read rule and the write rule; the oracle's
    neighbor-read phase runs it with ``write=False``.
    """

    def __init__(self, placement: Placement, policy: str = "none"):
        if policy not in MEMSYNC_POLICIES:
            raise ValueError(f"memsync policy must be one of "
                             f"{MEMSYNC_POLICIES}, got {policy!r}")
        self.policy = policy
        self.placement = placement
        self.assignment = placement.assignment
        self.num_shards = placement.num_shards
        # The placement's own holder matrix, not a copy: ownership moves
        # applied through the router are visible here at once.
        self._holder = placement.member
        n = placement.num_nodes
        # Owner-side truth: one bump per batch the vertex appears in.
        self.version = np.zeros(n, dtype=np.int64)
        # Version each shard's copy of each row reflects.
        self.mirror_version = np.zeros((self.num_shards, n), dtype=np.int64)
        # True once a shard holds a cached copy of a non-held row.
        self._mirror = np.zeros((self.num_shards, n), dtype=bool)
        # Running totals (the engine re-aggregates per served sub-job so it
        # can exclude dropped windows; these count everything observed).
        self.pulled_rows = 0
        self.pushed_rows = 0
        self.stale_reads = 0
        self.max_version_lag = 0

    @property
    def sync_rows(self) -> int:
        """Total rows transferred between shards (pulls + pushes)."""
        return self.pulled_rows + self.pushed_rows

    # ------------------------------------------------------------------ #
    def _step(self, v: np.ndarray, reads: np.ndarray,
              write: bool) -> dict[int, SyncOutcome]:
        """Reads, then (``write``) the owner writes, on the columns ``v``.

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
        holder = self._holder.take(v, axis=1)
        version = self.version[v]
        stamp = self.mirror_version.take(v, axis=1)
        mirror = self._mirror.take(v, axis=1)
        present = reads.any(axis=1)
        stale = reads & ~holder & (stamp < version)
        if self.policy == "none":
            n = np.count_nonzero(stale, axis=1).tolist()
            worst = (version - stamp).max(axis=1, where=stale,
                                          initial=0).tolist()
            self.stale_reads += int(np.count_nonzero(stale))
            self.max_version_lag = max(self.max_version_lag, *worst)
        else:
            np.copyto(stamp, version, where=stale)
            mirror |= stale
            self.pulled_rows += int(np.count_nonzero(stale))
        pushed = None
        if write:
            version += 1
            current = holder
            if self.policy == "push":
                # Every stamp ever written is a then-current version, so
                # none exceeds its owner's: after the bump every present
                # non-holder mirror lags and takes the push.
                pushed = present[:, None] & mirror & ~holder
                self.pushed_rows += int(np.count_nonzero(pushed))
                current = holder | pushed
            np.copyto(stamp, version, where=current)
        self.version[v] = version
        self.mirror_version[:, v] = stamp
        self._mirror[:, v] = mirror
        shards = present.nonzero()[0].tolist()
        if self.policy == "none":
            return {s: SyncOutcome(stale_reads=n[s], max_lag=worst[s])
                    for s in shards}
        return {s: SyncOutcome(pulled=v[stale[s]], pushed=_EMPTY
                               if pushed is None else v[pushed[s]])
                for s in shards}

    def sync_batch(self, vertices: np.ndarray,
                   reads: np.ndarray) -> dict[int, SyncOutcome]:
        """One batch's whole sync step; returns each present shard's part.

        ``vertices`` is the batch's sorted-unique endpoint set and
        ``reads`` the ``(num_shards, len(vertices))`` read incidence: row
        ``s`` marks the endpoints of shard ``s``'s sub-batch.  Every
        present shard's reads run first, against the pre-batch versions,
        then the batch's owner writes and their push deliveries — the
        caller is responsible for actually transferring the returned
        ``pulled`` rows before using them and applying the ``pushed``
        deliveries after the writes.
        """
        return self._step(vertices, reads, write=True)

    def transfer_ownership(self, vertices, from_shards, to_shard: int) -> None:
        """Mirror stamps for ``vertices`` just moved from ``from_shards``
        to ``to_shard`` (an online migration's coherence side — the same
        call serves elastic shard splits/merges, where the autoscaler
        is the migration's author).

        Runs **after** the routing flip, on the shared holder matrix:
        :func:`hand_off` is its one caller.  The handoff delivers the
        vertices' *current* rows to the new owner, so its copy is stamped
        with the current version — a migrated-in vertex is never
        spuriously stale, and subsequent owner writes keep bumping the
        same counter (version history survives the ownership change; the
        exactness tests rely on this).  An old owner that stopped holding
        the vertex keeps its physical copy, which is exact at handoff
        time, so it is registered as an up-to-date *mirror*: under
        ``push`` it keeps receiving updates while present, under
        ``invalidate``/``none`` it simply ages like any other mirror.  An
        old owner that is still a holder (a replicated vertex's, or a
        degenerate from == to transfer) keeps observing every write event
        and needs no stamp.
        """
        v = np.asarray(vertices, dtype=np.int64)
        f = np.broadcast_to(np.asarray(from_shards, dtype=np.int64),
                            v.shape)
        if not 0 <= int(to_shard) < self.num_shards:
            raise ValueError("to_shard out of range")
        gone = ~self._holder[f, v]
        self._mirror[f[gone], v[gone]] = True
        self.mirror_version[f[gone], v[gone]] = self.version[v[gone]]
        self._mirror[to_shard, v] = False
        self.mirror_version[to_shard, v] = self.version[v]

    def fail_over(self, dead: int, rebuilt) -> None:
        """Mirror stamps for a dead-replica failover the router applied.

        Unlike a migration's demote-to-mirror, the dead shard's copies are
        *lost*: it keeps no mirrors (the router already cleared its holder
        row).  Promoted vertices need no state action — their new owner
        was a replica, hence already a current holder.  Each ``rebuilt``
        vertex's rows were delivered to its new owner by the caller's
        memsync replay, so that owner is stamped current (version history
        survives, exactly as in ownership transfer).
        """
        self._mirror[dead, :] = False
        self.mirror_version[dead, :] = 0
        v = np.asarray(rebuilt, dtype=np.int64)
        o = self.assignment[v]
        self._mirror[o, v] = False
        self.mirror_version[o, v] = self.version[v]

    def current_peer(self, vertices, dead: int) -> np.ndarray:
        """Per vertex, the lowest shard other than ``dead`` holding a
        *current* copy — the source a failover rebuild reads from — or
        ``-1`` where no such copy survives.

        Holders are always current; mirrors qualify when their stamp
        matches the owner version — under ``push`` every shard that
        participated in the vertex's last batch does, because it pulled
        the pre-batch rows and computed (or received) the same update.
        """
        v = np.asarray(vertices, dtype=np.int64)
        current = (self.mirror_version[:, v] == self.version[v]) \
            & (self._holder[:, v] | self._mirror[:, v])
        current[dead] = False
        return np.where(current.any(axis=0), current.argmax(axis=0), -1)


def hand_off(router: ShardRouter, cache: VersionedMemoryCache | None,
             vertices, from_shards, to_shard: int) -> None:
    """Flip ownership of ``vertices`` from ``from_shards`` to ``to_shard``.

    The single apply step behind every ownership move — the serving
    :class:`~repro.serving.control.ControlPlane` (rebalancer migrations,
    autoscaler splits/merges, failover fail-backs: it vets each plan
    first) and ``ShardedRuntime.migrate``, the functional oracle in
    ``tests/property/sharded_oracle.py``: check the
    plan still matches the live assignment, flip the routing side
    (:meth:`~repro.serving.router.ShardRouter.migrate`), then stamp the
    coherence side (:meth:`VersionedMemoryCache.transfer_ownership`,
    which reads "is the old owner still a holder" off the table the
    router just flipped).  Callers keep what is theirs: counters,
    pricing, trace records, and the actual row copies.
    """
    v = np.asarray(vertices, dtype=np.int64)
    expected = np.broadcast_to(np.asarray(from_shards, dtype=np.int64),
                               v.shape)
    owners = router.assignment[v]
    stale = np.flatnonzero(owners != expected)
    if len(stale):
        i = stale[0]
        raise RuntimeError(
            f"migration of vertex {v[i]} expected owner {expected[i]} but "
            f"found {owners[i]}: ownership changed between decision and "
            f"application")
    router.migrate(v, to_shard)
    if cache is not None:
        cache.transfer_ownership(v, expected, to_shard)


def fail_over(router: ShardRouter, cache: VersionedMemoryCache | None,
              dead: int, live) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Evacuate ownership off ``dead``, whose state is lost, onto ``live``.

    The single apply step behind every dead-shard failover — the engine's
    :class:`~repro.serving.control.FailureInjector` and
    ``ShardedRuntime.fail_shard``, the functional oracle in
    ``tests/property/sharded_oracle.py``.  ``live`` is the caller's boolean
    mask of shards that may receive ownership; only the caller knows
    which other shards are down.  Rebuild sources are looked up
    **before** the flip, against the pre-failover holder set: the router
    names each rebuilt vertex's new owner a holder while it is still
    empty-handed, so a lookup afterwards would nominate it as its own
    source.  Then the routing side flips
    (:meth:`~repro.serving.router.ShardRouter.fail_over`) and the cache
    stamps its mirrors (:meth:`VersionedMemoryCache.fail_over`).

    Returns ``(owned, promoted, rebuilt, peers)``: the vertices ``dead``
    owned (the snapshot a recovery fails back), the two halves
    ``router.fail_over`` split them into, and per rebuilt vertex the
    lowest surviving shard with a current copy (``-1``: none — without a
    cache, all of them).  Callers keep counters, pricing, trace records
    and the actual row copies.
    """
    if not 0 <= dead < router.num_shards:
        raise ValueError("dead shard out of range")
    owned = np.flatnonzero(router.assignment == dead)
    peers = np.full(len(owned), -1) if cache is None \
        else cache.current_peer(owned, dead)
    promoted, rebuilt = router.fail_over(dead, live)
    if cache is not None:
        cache.fail_over(dead, rebuilt)
    return owned, promoted, rebuilt, peers[np.isin(owned, rebuilt)]
