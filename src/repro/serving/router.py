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

One pass per ownership epoch
----------------------------
The paper gets its throughput by replacing per-vertex control with one
pre-segmented streaming pass (FlowGNN argues the same for multi-queue
dataflow), and the router routes the same way: no loop over shards, and
no pass per job.  How a job splits, and what its memsync step costs,
depend only on the ownership table and on the jobs before it, and the
table moves only through :meth:`ShardRouter.migrate` and
:meth:`ShardRouter.fail_over`, which bump :attr:`ShardRouter.generation`.
So :meth:`ShardRouter.plan` routes every job it is given in one pass — a
:class:`RoutePlan` — and hands them out one at a time; when the
generation moves, the caller drops the plan and routes what is left
again.  Under serial ingest the job boundaries are known in advance
(:meth:`~repro.serving.batcher.DynamicBatcher.releases`), so the serving
engine routes one plan per run when no controller can move ownership,
and otherwise plans of doubling size within an epoch, so that the jobs
a move throws away never outnumber those handed out by more than the
epoch's first plan.

Inside a plan, ``member[:, src] | member[:, dst]`` is the whole ``(shard,
edge)`` incidence of every job; one stable sort by ``(job, shard)`` lays
each sub-batch out as a contiguous run of pairs in stream order, and
bounds from one ``searchsorted`` cut them; local versus mail is
``assignment[src] != shard`` on the same pairs; and every job's memsync
step comes from one closed-form pass on the cache
(:meth:`~repro.serving.memsync.VersionedMemoryCache.steps`).  The cost
therefore follows the number of ``(shard, edge)`` pairs, not the number
of shards or of jobs.

That leans on one invariant of the ownership table — **the owner is
always a holder** (``Placement.__init__``, :meth:`ShardRouter.migrate`
and :meth:`ShardRouter.fail_over` all preserve it) — so the holder
incidence alone already contains every edge's local copy.  And it gives
one ordering guarantee: a job's sub-batches come back in ascending shard
order, each in stream order.

Consequently every holder of a vertex sees exactly the edges incident to
it, in stream order.  That gives a hard consistency guarantee for the FIFO
neighbor state: a shard's neighbor-table rows for the vertices it *holds*
(owned or replicated) are identical to the unsharded table's rows (asserted
by the serving and placement tests).

Vertex *memory* rows of non-held endpoints are governed by a separate,
pluggable sync policy (:mod:`repro.serving.memsync`).  The mail can carry
memory-row updates and invalidations alongside the edges: pass a
:class:`~repro.serving.memsync.VersionedMemoryCache` to :meth:`plan` (or
:meth:`split`) and each sub-batch's run names the rows the shard must
pull before processing (``sync_pull``), the owner-pushed rows riding in with
its mail (``sync_push``), and the staleness it tolerated (``stale_reads`` /
``version_lag``).  Policy space: ``none`` keeps PR 1's stale mirrors (and
measures the staleness), ``invalidate`` pulls fresh rows on demand, and
``push`` eagerly forwards owner writes — under the sync policies a holder's
memory rows are exact, not stale mirrors (the bit-identity tests in
``test_memsync``).  The :class:`CrossShardMailbox` tallies forwarded edges
in ``counts``; a sub-batch's ``sync_pull`` / ``sync_push`` are its memory
row traffic.

What a plan hands out
---------------------
A plan's per-run columns are the record of every sub-job's traffic, and
:meth:`RoutePlan.next` hands a job out as ``(run, shard, rows)``: the
run index into those columns and a :class:`PlanRows` view of the
sub-batch's rows, nothing more.  A view gathers a column only when it is
read, so a backend that prices from the batch's shape moves no edge
data, as the accelerator decides from metadata before it fetches.  The
serving engine reads the traffic of a whole plan as one table and builds
no per-sub-job record.  :class:`ShardBatch` — a sub-batch as an
:class:`EdgeBatch` with its traffic fields, named as above — is built
from a plan's columns in one place, :meth:`RoutePlan.shard_batch`,
which serves :meth:`ShardRouter.split`; a one-shard ``split`` wraps the
batch whole and routes no plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.temporal_graph import EdgeBatch
from .placement import Placement, hash_assignment, shard_pair_counts

__all__ = ["ShardBatch", "CrossShardMailbox", "ShardRouter", "RoutePlan",
           "PlanRows"]


_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class ShardBatch:
    """The slice of one job a single shard must process.

    The ``sync_*`` fields are populated when the router is given a memsync
    cache: ``sync_pull`` are the vertex rows this shard must fetch from
    their owners before processing (priced as mailbox round-trips),
    ``sync_push`` the owner-updated rows delivered alongside its mail, and
    ``stale_reads`` / ``version_lag`` the staleness the ``none`` policy
    tolerated instead.
    """

    shard: int
    batch: EdgeBatch            # local + forwarded edges, chronological
    local_edges: int
    mail_edges: int             # edges forwarded in from other shards
    mail_from: np.ndarray       # (mail_edges,) source shard per forwarded edge
    sync_pull: np.ndarray
    sync_push: np.ndarray
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

    def record(self, from_shards: np.ndarray, to_shards: np.ndarray) -> None:
        """Record forwarded edges, one per ``(from, to)`` entry pair."""
        self.counts += shard_pair_counts(from_shards, to_shards,
                                         self.num_shards)


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
        # Bumped by every ownership move: a RoutePlan is valid while it
        # matches.
        self.generation = 0

    @classmethod
    def from_placement(cls, placement: Placement) -> "ShardRouter":
        return cls(placement.num_shards, placement.num_nodes,
                   placement=placement)

    def migrate(self, vertices: np.ndarray, to_shard: int) -> np.ndarray:
        """Reassign ownership of ``vertices`` to ``to_shard``, mid-run.

        The online-rebalancing primitive: mutates the live placement (its
        assignment and holder matrix) in place, so every reader of the
        table sees the new ownership, and bumps :attr:`generation`, so no
        :class:`RoutePlan` routed under the old one is used again.
        Ownership stays exactly-once by construction — one
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
        self.generation += 1
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
        self.generation += 1
        return promoted, rebuilt

    def plan(self, edges: EdgeBatch, job_edges, rows: np.ndarray | None = None,
             mailbox: CrossShardMailbox | None = None,
             cache=None) -> RoutePlan:
        """Route consecutive jobs in one pass; see :class:`RoutePlan`.

        Job ``j`` is plan edges ``job_edges[j]:job_edges[j + 1]``, where
        the plan's edges are ``edges``' rows ``rows`` (default: all of
        them, in order).  The plan reads the ownership table and the
        cache's state now: hand its jobs out before the next ownership
        move (:attr:`generation` says when one happened).
        """
        return RoutePlan(self, edges, np.asarray(job_edges), rows,
                         mailbox, cache)

    def split(self, batch: EdgeBatch,
              mailbox: CrossShardMailbox | None = None,
              cache=None) -> list[ShardBatch]:
        """Partition ``batch`` into per-shard sub-batches: a one-job
        :meth:`plan`.

        An edge appears on its source's owner (local) and on every other
        holder of either endpoint (mail) — with no replication that is
        exactly the two owners.  Sub-batches come back in ascending shard
        order, each in stream order; shards with no incident edge are
        omitted, and an empty batch returns ``[]``.  The mail is credited
        to ``mailbox`` and the batch's sync step runs on ``cache`` (see
        :class:`RoutePlan`).

        A one-shard router owns every vertex, so nothing can be mail and
        no copy can be stale: the batch itself is the one sub-batch and
        the pass is skipped.
        """
        if self.num_shards == 1:
            return [ShardBatch(0, batch, len(batch), 0, _NO_ROWS, _NO_ROWS,
                               _NO_ROWS)] if len(batch) else []
        plan = self.plan(batch, [0, len(batch)], mailbox=mailbox,
                         cache=cache)
        return [plan.shard_batch(*run) for run in plan.next()]


def _job_shard_runs(shard: np.ndarray, job: np.ndarray, num_shards: int,
                    runs: int) -> tuple[np.ndarray | slice, np.ndarray]:
    """Sort items by ``(job, shard)``, stably: the order, and the
    ``(runs + 1,)`` bounds of run ``j * num_shards + s`` in it.

    Items come shard-major (the ``nonzero()`` of a ``(shard, item)``
    matrix), so one job's are in order already.
    """
    key = job * num_shards + shard
    order = key.argsort(kind="stable") if runs > num_shards else slice(None)
    return order, key[order].searchsorted(np.arange(runs + 1))


class RoutePlan:
    """Consecutive jobs routed in one pass, handed out by :meth:`next`.

    Built by :meth:`ShardRouter.plan`.  :meth:`Placement.incidence
    <repro.serving.placement.Placement.incidence>` lists every job's
    ``(shard, edge)`` pairs (the owner is always a holder, so the local
    copies are among them); one stable sort by ``(job, shard)`` makes
    each sub-batch a contiguous run of pairs, in stream order, and the
    mail pairs — those whose source is owned elsewhere — a second run.
    With a :class:`~repro.serving.memsync.VersionedMemoryCache` as
    ``cache``, every job's sync step comes from one
    :meth:`~repro.serving.memsync.VersionedMemoryCache.steps` pass, which
    gives each run its pull/push row sets (ascending vertex ids) and
    staleness counts.  The caller prices (or, in a functional replay,
    actually transfers) those rows; the plan never touches vertex state.

    Per ``(job, shard)`` run ``j * num_shards + s`` the plan keeps the
    bounds of its pairs (``bounds``), of its mail (``mail_bounds`` into
    ``mail_from``), of its pulled and pushed rows (``pull_bounds`` /
    ``push_bounds`` into ``pull`` / ``push``) and of its stale reads
    (``stale_bounds``), and its worst version lag (``lag``).  These
    columns are the record: :meth:`next` hands the jobs out in order as
    ``(run, shard, rows)`` and, in the same call, credits the job's
    mail to ``mailbox`` and commits its step to the cache, so neither is
    ever ahead of the jobs handed out; :meth:`shard_batch` packs one run
    into a :class:`ShardBatch` for callers that want the record whole.
    The four scalar edge columns are gathered once per plan and never
    written after; ``rows`` is a :class:`PlanRows` view of them, and a
    sub-batch's feature rows are taken only when a reader asks for them,
    so neither a priced sub-job nor a plan dropped mid-way copies any.
    """

    def __init__(self, router: ShardRouter, edges: EdgeBatch,
                 job_edges: np.ndarray, rows: np.ndarray | None,
                 mailbox: CrossShardMailbox | None, cache):
        self.generation = router.generation
        self.num_shards = n = router.num_shards
        self.num_jobs = len(job_edges) - 1
        self.position = 0
        self._mailbox, self._cache = mailbox, cache
        self._feat = edges.edge_feat
        src, dst = (edges.src, edges.dst) if rows is None \
            else (edges.src[rows], edges.dst[rows])
        job = job_edges[1:].searchsorted(np.arange(len(src)), side="right")
        runs = self.num_jobs * n
        to_shard, edge, from_shard = router.placement.incidence(src, dst)
        order, bounds = _job_shard_runs(to_shard, job[edge], n, runs)
        self.bounds = bounds.tolist()
        to_shard, edge, from_shard = \
            to_shard[order], edge[order], from_shard[order]
        mail = from_shard != to_shard
        self.mail_from = from_shard[mail]
        self._mail_to = to_shard[mail]
        # The mail pairs before a run's first pair are where its mail starts.
        self.mail_bounds = np.flatnonzero(mail).searchsorted(bounds).tolist()
        row = edge if rows is None else rows[edge]
        self._row = row
        self._src, self._dst = edges.src[row], edges.dst[row]
        self._t, self._eid = edges.t[row], edges.eid[row]
        self.pull = self.push = _NO_ROWS
        self.pull_bounds = self.push_bounds = [0] * (runs + 1)
        self.stale_bounds = [0] * (runs + 1)
        self.lag = [0] * runs
        if cache is None:
            return
        # Column c of the steps is vertex v[c] in its job: each job's
        # endpoints, ascending, job after job.
        base = job * router.num_nodes
        ends = np.concatenate((base + src, base + dst))
        pairs = np.unique(ends)
        col = pairs.searchsorted(ends)
        reads = np.zeros((n, len(pairs)), dtype=bool)
        reads[to_shard, col[edge]] = True
        reads[to_shard, col[len(src) + edge]] = True
        self._steps = steps = cache.steps(
            pairs % router.num_nodes,
            pairs.searchsorted(np.arange(self.num_jobs + 1)
                               * router.num_nodes),
            reads, (bounds[1:] > bounds[:-1]).reshape(self.num_jobs, n).T)
        self.pull, self.pull_bounds = steps.pull, steps.pull_bounds
        self.push, self.push_bounds = steps.push, steps.push_bounds
        self.stale_bounds, self.lag = steps.stale_bounds, steps.lag

    def next(self) -> list[tuple[int, int, PlanRows]]:
        """The next job's sub-batches, as ``(run, shard, rows)``.

        Runs come in ascending shard order, each sub-batch in stream
        order; ``run`` indexes the plan's per-run columns and ``rows`` is
        the run's pairs as a :class:`PlanRows` view, which gathers no
        column until it is read.
        """
        job = self.position
        self.position = job + 1
        n = self.num_shards
        at = job * n
        bounds = self.bounds[at:at + n + 1]
        if self._mailbox is not None:
            lo, hi = self.mail_bounds[at], self.mail_bounds[at + n]
            self._mailbox.record(self.mail_from[lo:hi], self._mail_to[lo:hi])
        if self._cache is not None:
            self._cache.commit(self._steps, job)
        return [(at + shard, shard, PlanRows(self, lo, hi))
                for shard, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                if lo != hi]

    def shard_batch(self, run: int, shard: int,
                    rows: PlanRows) -> ShardBatch:
        """Run ``run`` of :meth:`next` as one :class:`ShardBatch` record,
        read off the plan's columns, its batch an :class:`EdgeBatch`."""
        mail_lo, mail_hi = self.mail_bounds[run], self.mail_bounds[run + 1]
        pull, push = self.pull_bounds, self.push_bounds
        edge_batch, columns = rows.__reduce__()
        return ShardBatch(
            shard, edge_batch(*columns), len(rows) - (mail_hi - mail_lo),
            mail_hi - mail_lo, self.mail_from[mail_lo:mail_hi],
            self.pull[pull[run]:pull[run + 1]],
            self.push[push[run]:push[run + 1]],
            self.stale_bounds[run + 1] - self.stale_bounds[run],
            self.lag[run])


class PlanRows:
    """Pairs ``[lo, hi)`` of a :class:`RoutePlan`: one sub-batch, read on
    demand.

    It answers what an :class:`EdgeBatch` answers, but a column is sliced
    off the plan's gathered columns only when it is read, and the feature
    rows are taken from the stream's features only then.  A pricing
    backend reads ``len`` (and the FPGA simulator the endpoints), so a
    priced sub-job gathers nothing; an executing one reads each column
    it uses.  The plan's columns are never written after it is built, so
    what a view reads does not change while its job waits, across a
    re-plan too.  Pickled (a measured worker lane), a view is the
    :class:`EdgeBatch` it names, never the plan.
    """

    __slots__ = ("_plan", "_lo", "_hi")

    def __init__(self, plan: RoutePlan, lo: int, hi: int):
        self._plan, self._lo, self._hi = plan, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def src(self) -> np.ndarray:
        return self._plan._src[self._lo:self._hi]

    @property
    def dst(self) -> np.ndarray:
        return self._plan._dst[self._lo:self._hi]

    @property
    def t(self) -> np.ndarray:
        return self._plan._t[self._lo:self._hi]

    @property
    def eid(self) -> np.ndarray:
        return self._plan._eid[self._lo:self._hi]

    @property
    def edge_feat(self) -> np.ndarray:
        plan = self._plan
        return plan._feat.take(plan._row[self._lo:self._hi], axis=0)

    # The interleaved (src, dst) endpoint ids: EdgeBatch's own property.
    nodes = EdgeBatch.nodes

    def __reduce__(self):
        return EdgeBatch, (self.src, self.dst, self.t, self.eid,
                           self.edge_feat)
