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
    refreshed.  The steps still *count* stale reads — the report's
    ``stale_reads`` and ``max_version_lag`` quantify the staleness the
    deployment tolerates.
``invalidate``
    Write-invalidate: an owner write implicitly invalidates remote mirrors
    (the version stamp lags; invalidation notices piggyback on the edge
    mail and are not counted as row traffic).  A shard reading an invalid
    row pulls the fresh row from the owner — one mailbox round-trip (the
    row transfer counts once in ``sync_pull``; the latency is priced at
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

from typing import NamedTuple, Sequence

import numpy as np

from .placement import Placement
from .router import ShardRouter, _job_shard_runs

__all__ = ["MEMSYNC_POLICIES", "HANDOFF_ROWS_PER_VERTEX", "SyncSteps", "VersionedMemoryCache", "hand_off", "fail_over"]

MEMSYNC_POLICIES = ("none", "invalidate", "push")

# State rows :func:`hand_off` moves per vertex: its vertex-memory row
# (memory + mailbox + timestamps travel as one row, exactly as memsync
# prices a pull/push) plus its neighbor-table slice (the mr-slot FIFO ring
# moves as one packed row).  The serving engine prices this count; the
# functional ShardedRuntime in tests/property/sharded_oracle.py actually
# copies both and records the same count.
HANDOFF_ROWS_PER_VERTEX = 2

_EMPTY = np.empty(0, dtype=np.int64)


class SyncSteps(NamedTuple):
    """The sync steps of consecutive jobs (:meth:`VersionedMemoryCache.
    steps`).

    Column ``c`` is vertex ``v[c]`` in job ``j`` for ``bounds[j] <= c <
    bounds[j + 1]``: each job's endpoints, ascending, job after job.  The
    outcome of shard ``s`` in job ``j`` is run ``i = j * num_shards + s``:
    it pulls ``pull[pull_bounds[i]:pull_bounds[i + 1]]`` (ascending), takes
    the pushes ``push[push_bounds[i]:push_bounds[i + 1]]``, and served
    ``stale_bounds[i + 1] - stale_bounds[i]`` stale reads, the worst
    ``lag[i]`` versions behind.
    """

    v: np.ndarray
    bounds: list[int]
    pull: np.ndarray
    pull_bounds: list[int]
    push: np.ndarray
    push_bounds: list[int]
    stale_bounds: list[int]
    lag: list[int]
    version: np.ndarray         # (columns,) post-job version
    # Post-job mirror stamps and flags, flat and column-major: entry
    # ``c * num_shards + s`` is shard ``s``'s cell of column ``c``, at flat
    # position ``cells[...]`` of the ``(num_shards, num_nodes)`` matrices.
    cells: np.ndarray
    stamp: np.ndarray
    mirror: np.ndarray


# Scans along the vertex-sorted columns of VersionedMemoryCache.steps, one
# run per vertex: ``run[c]`` is column ``c``'s run and ``start`` holds the
# runs' first columns; ``run is None`` when every run is one column.
def _run_any(b: np.ndarray, start: np.ndarray,
             run: np.ndarray | None) -> np.ndarray:
    """Cumulative OR of ``b`` along axis 1, restarted at every run."""
    if run is None:
        return b
    seen = b.cumsum(axis=1)
    return seen > (seen - b)[:, start][:, run]


def _run_prev(x: np.ndarray, first: np.ndarray, start: np.ndarray,
              run: np.ndarray | None) -> np.ndarray:
    """``x`` at the previous column of the run, along axis 1; ``first``
    at a run's first column."""
    if run is None:
        return first
    out = np.empty_like(x)
    out[:, 1:] = x[:, :-1]
    out[:, start] = first[:, start]
    return out


def _run_max(x: np.ndarray, run: np.ndarray | None) -> np.ndarray:
    """Cumulative max of ``x >= -1`` along axis 1, restarted at every run
    (run ``r``'s values are lifted above every earlier run's)."""
    if run is None:
        return x
    lift = run * (x.shape[1] + 2) + 1
    return np.maximum.accumulate(x + lift, axis=1) - lift


class VersionedMemoryCache:
    """Per-vertex version counters + per-shard mirror stamps.

    Pure state: callers drive the sync steps in stream order —
    :meth:`steps` for a run of jobs, then :meth:`commit` per job as it is
    handed out (the router's plans do both) — and act on the pull/push
    vertex sets the steps name.  The cache keeps no tally of them: each
    job's pulls, pushes, stale reads and lag land in its
    :class:`~repro.serving.router.ShardBatch`\\ es, which the engine prices
    and reports and the functional oracle in
    ``tests/property/sharded_oracle.py`` copies and counts.  The matrices
    are ``(num_shards, num_nodes)`` — fine at simulation scale; a
    deployment would keep per-shard sparse maps.
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

    # ------------------------------------------------------------------ #
    def steps(self, v: np.ndarray, bounds: Sequence[int], reads: np.ndarray,
              present: np.ndarray) -> SyncSteps:
        """Every sync step of consecutive jobs, in closed form.

        ``v`` and ``bounds`` lay the jobs' endpoints out as
        :class:`SyncSteps` columns; ``reads[s, c]`` marks shard ``s``
        reading column ``c`` (an endpoint of its sub-batch) and
        ``present[s, j]`` shard ``s`` having a sub-batch in job ``j``.
        One job's step is its reads against the pre-job versions, then
        its owner writes:

        Read rule: holders are never stale; a non-holder's read is stale
        when its stamp lags the owner version.  Under ``none`` stale reads
        are only counted; under ``invalidate`` and ``push`` every stale
        row is pulled from its owner and the mirror stamped current.

        Write rule: every column is written exactly once — its version
        bumps, and its holders observe the event and stay current.  Under
        ``push`` the updated rows are forwarded to the mirrors among the
        present shards (those receiving the job's mail; after the bump
        every one lags, since no stamp exceeds its owner's version);
        absent mirrors simply lag and repair through the pull fallback on
        their next read.

        A column touches only its own vertex, so sorting the columns by
        vertex turns the jobs into one run per vertex, where column ``k``
        of a run reads version ``version0 + k`` and a shard's state
        follows from its run alone.  A non-holder's row is a mirror once
        it was one or pulled — ``A = mirror0 | runs-OR(reads & (stamp0 <
        version0 + k))`` — it is current after a job when it holds the
        vertex or took the push (``present & A``), and a read is stale
        exactly when its row was not current after the run's previous
        column (before the first: when ``stamp0 < version0``).  Under
        ``none`` nothing but a holder's stamp ever moves.  The caller
        applies each job's results with :meth:`commit`, in order, and
        must not move ownership in between: the holders are read here.
        """
        num_shards, n = reads.shape
        bounds = np.asarray(bounds)
        jobs = len(bounds) - 1
        runs = jobs * num_shards
        if jobs > 1:
            order = v.argsort(kind="stable")
            job = np.repeat(np.arange(jobs), bounds[1:] - bounds[:-1])[order]
            w, read = v[order], reads.take(order, axis=1)
            first = np.ones(n, dtype=bool)
            first[1:] = w[1:] != w[:-1]
            start = np.flatnonzero(first)
            run = first.cumsum() - 1
            k = np.arange(n) - start[run]
        else:
            # One job's columns are distinct vertices: runs of one column.
            order, job, w, read, start, run, k = \
                None, np.zeros(n, dtype=np.int64), v, reads, None, None, 0
        holder = self._holder.take(w, axis=1)
        version = self.version[w] + k
        stamp0 = self.mirror_version.take(w, axis=1)
        mirror = self._mirror.take(w, axis=1)
        read = read & ~holder
        behind = stamp0 < version

        def by_run(mask):
            # A mask's vertices grouped by (job, shard), ascending within
            # a group, as the columns are sorted by vertex.
            shard, col = mask.nonzero()
            group, cuts = _job_shard_runs(shard, job[col], num_shards, runs)
            return w[col[group]], cuts

        pull = push = _EMPTY
        pull_bounds = push_bounds = np.zeros(runs + 1, dtype=np.int64)
        stale = np.zeros(runs + 1, dtype=np.int64)
        worst = np.zeros(runs, dtype=np.int64)
        if self.policy == "none":
            stamp = np.where(holder, version + 1, stamp0)
            shard, col = (read & behind).nonzero()
            at = job[col] * num_shards + shard
            np.bincount(at, minlength=runs).cumsum(out=stale[1:])
            np.maximum.at(worst, at, (version - stamp0)[shard, col])
        else:
            mirror = mirror | _run_any(read & behind, start, run)
            pushed = ~holder & present.take(job, axis=1) & mirror \
                if self.policy == "push" else np.zeros_like(holder)
            current = holder | pushed
            pulled = read & ~_run_prev(current, ~behind, start, run)
            # The stamp is the version of the last pull (k) or current
            # write (k + 1) in the run so far, else untouched.
            last = _run_max(np.where(current, k + 1,
                                     np.where(pulled, k, -1)), run)
            stamp = np.where(last >= 0, version - k + last, stamp0)
            pull, pull_bounds = by_run(pulled)
            push, push_bounds = by_run(pushed)
        version += 1
        if order is not None:
            back = np.empty(n, dtype=np.int64)
            back[order] = np.arange(n)
            version, stamp, mirror = \
                version[back], stamp[:, back], mirror[:, back]
        cells = (v[:, None] + self.placement.num_nodes
                 * np.arange(num_shards)).ravel()
        return SyncSteps(v, bounds.tolist(), pull, pull_bounds.tolist(), push,
                         push_bounds.tolist(), stale.tolist(), worst.tolist(),
                         version, cells, stamp.T.ravel(), mirror.T.ravel())

    def commit(self, steps: SyncSteps, job: int) -> None:
        """Apply job ``job`` of ``steps``: its columns' post-job state."""
        n = self.num_shards
        lo, hi = steps.bounds[job], steps.bounds[job + 1]
        self.version[steps.v[lo:hi]] = steps.version[lo:hi]
        self.mirror_version.put(steps.cells[lo * n:hi * n],
                                steps.stamp[lo * n:hi * n])
        self._mirror.put(steps.cells[lo * n:hi * n],
                         steps.mirror[lo * n:hi * n])

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
