"""Synthetic temporal interaction streams standing in for Wikipedia/Reddit/GDELT.

The paper evaluates on three real streams that we cannot redistribute, so we
generate statistically similar substitutes (documented in DESIGN.md §1):

* **bipartite** user→item interactions (JODIE's Wikipedia/Reddit are user-page
  and user-subreddit streams);
* **heavy-tailed activity**: user event counts and item popularities follow a
  Zipf law, so per-vertex inter-event times Δt follow the power law the paper
  observes in Fig. 1 ("most inputs are close to 0") — the property the LUT
  time encoder's equal-frequency binning exploits;
* **learnable structure**: vertices carry latent communities; users
  re-interact mostly within their community, and features are noisy community
  prototypes.  This gives temporal link prediction real signal, so teacher /
  student AP comparisons (Table II) are meaningful;
* **feature dimensionality matching the paper**: 172-d edge features for the
  Wikipedia/Reddit analogues, 200-d node features (no edge features) for the
  GDELT analogue.

Scale is configurable; defaults are laptop-sized.  All randomness flows from
one seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.temporal_graph import TemporalGraph

__all__ = ["StreamSpec", "generate_stream", "wikipedia_like", "reddit_like",
           "gdelt_like", "drifting_hot_set_graph"]

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of a synthetic interaction stream."""

    name: str
    num_users: int
    num_items: int
    num_edges: int
    edge_dim: int               # 0 for node-feature datasets
    node_dim: int               # 0 for edge-feature datasets
    duration_days: float = 30.0
    num_communities: int = 8
    p_in_community: float = 0.85   # chance an event stays in-community
    p_repeat: float = 0.6          # chance a user re-hits a recent item
    user_zipf: float = 1.1         # activity skew (>1 = heavier tail)
    item_zipf: float = 1.05        # popularity skew
    feature_noise: float = 0.6     # std of noise added to prototypes
    seed: int = 0


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights ``rank^-exponent`` over ``n`` entities."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def generate_stream(spec: StreamSpec,
                    rng: np.random.Generator | None = None) -> TemporalGraph:
    """Sample a chronological bipartite interaction stream from ``spec``.

    Vertex id layout: users are ``[0, num_users)``, items are
    ``[num_users, num_users + num_items)``.

    ``rng`` lets a caller thread one generator through a pipeline of
    stochastic stages; the default derives a fresh generator from
    ``spec.seed``, so two calls with the same spec are byte-identical.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    U, I, E = spec.num_users, spec.num_items, spec.num_edges
    if E <= 0:
        raise ValueError("num_edges must be positive")
    # Every community needs at least one item (see below), so tiny item sets
    # clamp the community count.
    C = max(1, min(spec.num_communities, I))

    user_comm = rng.integers(0, C, size=U)
    item_comm = rng.integers(0, C, size=I)
    # Guarantee every community owns at least one item so in-community picks
    # never fall through to the global distribution by accident.
    item_comm[:C] = np.arange(C)

    # Per-community item pools and popularity weights.
    items_by_comm = [np.nonzero(item_comm == c)[0] for c in range(C)]
    item_pop = _zipf_weights(I, spec.item_zipf)
    pop_by_comm = [item_pop[pool] / item_pop[pool].sum() for pool in items_by_comm]

    # --- who acts, and when ------------------------------------------------
    user_weights = _zipf_weights(U, spec.user_zipf)
    users = rng.choice(U, size=E, p=user_weights)

    # Global arrivals: inhomogeneous Poisson with a daily cycle, which yields
    # the bursty inter-event gaps of real activity streams.  We sample E
    # exponential gaps, modulate them by a diurnal rate, then rescale the
    # total span to `duration_days`.
    gaps = rng.exponential(1.0, size=E)
    phase = np.cumsum(gaps)
    diurnal = 1.0 + 0.8 * np.sin(2.0 * np.pi * phase / (phase[-1] / spec.duration_days))
    gaps = gaps / np.maximum(diurnal, 0.2)
    t = np.cumsum(gaps)
    t *= (spec.duration_days * SECONDS_PER_DAY) / t[-1]

    # --- which item each event touches -------------------------------------
    items = np.empty(E, dtype=np.int64)
    last_item = np.full(U, -1, dtype=np.int64)  # most recent item per user
    repeat_draw = rng.random(E) < spec.p_repeat
    incomm_draw = rng.random(E) < spec.p_in_community
    # Vectorising this loop fully would need per-event categorical draws from
    # varying supports; we instead pre-draw uniforms and index community
    # pools, keeping the Python loop body tiny.
    unif = rng.random(E)
    global_cdf = np.cumsum(item_pop)
    comm_cdfs = [np.cumsum(p) for p in pop_by_comm]
    for i in range(E):
        u = users[i]
        if repeat_draw[i] and last_item[u] >= 0:
            items[i] = last_item[u]
        elif incomm_draw[i]:
            c = user_comm[u]
            pool = items_by_comm[c]
            items[i] = pool[np.searchsorted(comm_cdfs[c], unif[i])]
        else:
            items[i] = np.searchsorted(global_cdf, unif[i])
        last_item[u] = items[i]

    src = users.astype(np.int64)
    dst = (items + U).astype(np.int64)

    # --- features -----------------------------------------------------------
    edge_feat = None
    node_feat = None
    if spec.edge_dim > 0:
        prototypes = rng.normal(0.0, 1.0, size=(C, spec.edge_dim))
        edge_feat = (prototypes[item_comm[items]] +
                     rng.normal(0.0, spec.feature_noise, size=(E, spec.edge_dim)))
    if spec.node_dim > 0:
        prototypes = rng.normal(0.0, 1.0, size=(C, spec.node_dim))
        comm_of_node = np.concatenate([user_comm, item_comm])
        node_feat = (prototypes[comm_of_node] +
                     rng.normal(0.0, spec.feature_noise, size=(U + I, spec.node_dim)))

    return TemporalGraph(src, dst, t, edge_feat=edge_feat, node_feat=node_feat,
                         num_nodes=U + I)


# --------------------------------------------------------------------------- #
# Named dataset analogues.  Dimensions match the paper exactly (Table II input
# dimension columns); node/edge counts are scaled-down defaults.
# --------------------------------------------------------------------------- #

def wikipedia_like(num_edges: int = 6000, seed: int = 0,
                   num_users: int = 800, num_items: int = 120) -> TemporalGraph:
    """Wikipedia analogue: user-page edits, 172-d edge features, ~30 days."""
    return generate_stream(StreamSpec(
        name="wikipedia-like", num_users=num_users, num_items=num_items,
        num_edges=num_edges, edge_dim=172, node_dim=0, duration_days=30.0,
        p_repeat=0.65, seed=seed))


def reddit_like(num_edges: int = 8000, seed: int = 1,
                num_users: int = 1000, num_items: int = 100) -> TemporalGraph:
    """Reddit analogue: user-subreddit posts; denser repeat behaviour."""
    return generate_stream(StreamSpec(
        name="reddit-like", num_users=num_users, num_items=num_items,
        num_edges=num_edges, edge_dim=172, node_dim=0, duration_days=30.0,
        p_repeat=0.75, user_zipf=1.2, seed=seed))


def gdelt_like(num_edges: int = 6000, seed: int = 2,
               num_users: int = 500, num_items: int = 500) -> TemporalGraph:
    """GDELT analogue: entity-entity events, 200-d node features, no edge features."""
    return generate_stream(StreamSpec(
        name="gdelt-like", num_users=num_users, num_items=num_items,
        num_edges=num_edges, edge_dim=0, node_dim=200, duration_days=30.0,
        p_in_community=0.9, p_repeat=0.5, seed=seed))


def lastfm_like(num_edges: int = 6000, seed: int = 3,
                num_users: int = 600, num_items: int = 100) -> TemporalGraph:
    """LastFM analogue (JODIE family): long-horizon user-artist listens.

    No features on either side (the hardest inductive setting: structure and
    timing only), ~4x the time span of the Wikipedia stream and very high
    repeat affinity — users loop over small artist sets.
    """
    return generate_stream(StreamSpec(
        name="lastfm-like", num_users=num_users, num_items=num_items,
        num_edges=num_edges, edge_dim=0, node_dim=0, duration_days=120.0,
        p_repeat=0.85, user_zipf=1.3, seed=seed))


def mooc_like(num_edges: int = 6000, seed: int = 4,
              num_users: int = 700, num_items: int = 50) -> TemporalGraph:
    """MOOC analogue (JODIE family): student-courseware actions.

    Small 4-d edge features (action metadata), short horizon, strong
    diurnal burstiness, low repeat (students progress through items).
    """
    return generate_stream(StreamSpec(
        name="mooc-like", num_users=num_users, num_items=num_items,
        num_edges=num_edges, edge_dim=4, node_dim=0, duration_days=14.0,
        p_repeat=0.3, p_in_community=0.8, seed=seed))


def drifting_hot_set_graph(num_edges: int, shards: int,
                           num_nodes: int = 256, phases: int = 4,
                           hot_frac: float = 0.85, hot_size: int = 12,
                           seed: int = 11) -> TemporalGraph:
    """A hot set that *rotates between shards* mid-stream.

    Each phase (raw span 1e4 s) concentrates ``hot_frac`` of its edges on
    ``hot_size`` vertices that all hash to one shard (the serving layer's
    static multiplicative-hash partition), and the hot shard advances
    every phase — the adversarial case for any static partition: under
    hash one shard melts per phase while its neighbors idle, yet the
    *aggregate* per-shard heat is symmetric, so a profile of the whole run
    (a two-pass rebalancer's input) sees nothing to fix.  Only a policy
    that reacts inside a phase can help; the online-rebalancing bench and
    invariant tests both replay this workload.
    """
    # The bucketing deliberately mirrors the serving partition; imported
    # lazily so the dataset layer stays import-light.
    from ..serving.placement import hash_assignment
    rng = np.random.default_rng(seed)
    buckets = [np.flatnonzero(hash_assignment(num_nodes, shards) == s)
               for s in range(shards)]
    hot_sets = [b[:hot_size] for b in buckets]
    if any(len(h) < hot_size for h in hot_sets):
        raise ValueError("num_nodes too small for hot_size per shard")
    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    t = np.empty(num_edges)
    per_phase = num_edges // phases
    phase_span = 1e4
    for p in range(phases):
        lo = p * per_phase
        hi = (p + 1) * per_phase if p < phases - 1 else num_edges
        n = hi - lo
        hs = hot_sets[p % shards]
        hot = rng.random(n) < hot_frac
        src[lo:hi] = np.where(hot, hs[rng.integers(0, hot_size, n)],
                              rng.integers(0, num_nodes, n))
        dst[lo:hi] = np.where(hot, hs[rng.integers(0, hot_size, n)],
                              rng.integers(0, num_nodes, n))
        t[lo:hi] = np.sort(rng.uniform(p * phase_span, (p + 1) * phase_span,
                                       n))
    same = dst == src
    dst[same] = (dst[same] + 1) % num_nodes
    return TemporalGraph(src=src, dst=dst, t=t, num_nodes=num_nodes)
