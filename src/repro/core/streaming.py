"""Streaming repartitioning: batch a delta stream into repartition-worthy steps.

The paper's incremental model treats one delta at a time, but a production
system serving continuous change wants to *amortize*: many small deltas
rarely each deserve an LP solve.  :class:`StreamingPartitioner` owns the
evolving graph and partition vector, folds incoming
:class:`~repro.graph.incremental.GraphDelta`\\ s into one pending
composed delta (:func:`~repro.graph.incremental.compose_deltas`), and
repartitions only when a :class:`FlushPolicy` fires — accumulated churn
weight crossing a fraction of the average partition load λ, the estimated
imbalance crossing a threshold, a pending-delta cap, or an explicit
:meth:`~StreamingPartitioner.flush`.

This class is the *engine* of the public session API: callers should
normally go through :func:`repro.open_session`, which wraps one
``StreamingPartitioner`` in a :class:`repro.session.PartitionSession`
(adding initial partitioning, durable :meth:`~repro.session
.PartitionSession.save` / ``load`` snapshots, and a stable history
surface).  Instantiate the engine directly only when embedding it in a
custom driver.

Warm-start LP bases (:attr:`IncrementalGraphPartitioner.warm_bases`) are
carried across batches automatically because the session reuses one
partitioner instance; under ``lp_backend="revised"`` successive batch LPs
start from the previous batch's basis.  When a batch is too large for any
admissible γ (:class:`~repro.errors.RepartitionInfeasibleError`), the
session falls back to the paper's §2.3 chunked insertion
(:func:`~repro.core.multistage.chunked_insertion_repartition`) before
giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.multistage import chunked_insertion_repartition
from repro.core.partitioner import (
    IGPConfig,
    IncrementalGraphPartitioner,
    RepartitionResult,
)
from repro.errors import (
    APIUsageError,
    GraphError,
    ValidationError,
    PartitioningError,
    RepartitionInfeasibleError,
)
from repro.graph.csr import CSRGraph
from repro.graph.incremental import (
    DeltaComposer,
    GraphDelta,
    apply_delta,
    carry_partition,
)
from repro.obs import get_tracer

__all__ = ["FlushPolicy", "BatchRecord", "StreamingPartitioner"]


@dataclass(frozen=True)
class FlushPolicy:
    """When does accumulated churn deserve a repartition?

    Attributes
    ----------
    weight_fraction:
        flush when the composed delta's churn weight (added vertex weight
        plus deleted vertex weight) exceeds this fraction of the average
        partition load λ; ``None`` disables the trigger.
    imbalance_limit:
        flush when the *estimated* post-batch imbalance exceeds this.  The
        estimate is pessimistic-localized: deletions are charged to their
        exact partitions (they are known), and all added weight is charged
        to the heaviest surviving partition — the worst case for the
        localized growth adaptive meshes produce.  ``None`` disables.
    max_pending:
        flush after this many pending deltas (``1`` degenerates to
        per-delta repartitioning, the paper's original regime); ``None``
        disables.
    """

    weight_fraction: float | None = 0.5
    imbalance_limit: float | None = 2.0
    max_pending: int | None = None

    def __post_init__(self):
        # Reject bad thresholds at construction: a NaN (or non-positive)
        # threshold compares False against every pending measurement, so
        # a mis-built policy would otherwise silently *never* flush.
        wf = self.weight_fraction
        if wf is not None and not (np.isfinite(wf) and wf > 0):
            raise PartitioningError(
                f"FlushPolicy.weight_fraction must be a positive finite "
                f"number or None, got {wf!r} (NaN/non-positive thresholds "
                f"would silently never flush)"
            )
        il = self.imbalance_limit
        if il is not None and not (np.isfinite(il) and il >= 1.0):
            raise PartitioningError(
                f"FlushPolicy.imbalance_limit must be a finite number >= 1 "
                f"or None, got {il!r} (imbalance is >= 1 by definition, and "
                f"a NaN limit would silently never flush)"
            )
        mp = self.max_pending
        if mp is not None and (not float(mp).is_integer() or mp < 1):
            raise PartitioningError(
                f"FlushPolicy.max_pending must be an integer >= 1 or None, "
                f"got {mp!r} (a zero/negative cap would flush empty batches "
                f"or never cap at all)"
            )

    # ------------------------------------------------------------------
    # Serialization (durable session snapshots)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Encode as one float64 triple (NaN marks a disabled trigger)."""
        return {
            "policy": np.array(
                [
                    np.nan if self.weight_fraction is None else self.weight_fraction,
                    np.nan if self.imbalance_limit is None else self.imbalance_limit,
                    np.nan if self.max_pending is None else float(self.max_pending),
                ],
                dtype=np.float64,
            )
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "FlushPolicy":
        """Rebuild a policy from a :meth:`to_arrays` dict (re-validated)."""
        wf, il, mp = np.asarray(arrays["policy"], dtype=np.float64)
        return cls(
            weight_fraction=None if np.isnan(wf) else float(wf),
            imbalance_limit=None if np.isnan(il) else float(il),
            max_pending=None if np.isnan(mp) else int(mp),
        )


@dataclass(frozen=True)
class BatchRecord:
    """One flushed batch: what went in, what triggered it, what came out."""

    num_deltas: int
    composed: GraphDelta
    trigger: str
    result: RepartitionResult
    fallback: bool
    wall_s: float
    #: Per-phase wall-clock profile of the batch in seconds — the LP
    #: pipeline phases from :attr:`RepartitionResult.timings` (assign /
    #: layering / lp / move / refine) plus ``apply`` (delta application
    #: to the graph/shard store).  The cost-attribution substrate for
    #: adaptive flush policies; also surfaced on the session's durable
    #: :class:`~repro.session.BatchSummary` rows.
    phases: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable one-liner for logs and tables."""
        q = self.result.quality_final
        return (
            f"batch[{self.num_deltas} deltas, {self.trigger}] "
            f"{self.composed.summary()} -> cut={q.cut_total:.0f} "
            f"imbal={q.imbalance:.3f} stages={self.result.num_stages}"
            f"{' (chunked fallback)' if self.fallback else ''}"
        )


class StreamingPartitioner:
    """A repartitioning session over a stream of graph deltas.

    Example
    -------
    >>> import numpy as np
    >>> from repro.graph import grid_graph, GraphDelta
    >>> from repro.core.streaming import StreamingPartitioner, FlushPolicy
    >>> g = grid_graph(8, 8)
    >>> part = (np.arange(64) // 16).astype(np.int64)
    >>> sp = StreamingPartitioner(g, part, num_partitions=4,
    ...                           policy=FlushPolicy(max_pending=2))
    >>> sp.push(GraphDelta(num_added_vertices=1, added_edges=[(0, 64)])) is None
    True
    >>> res = sp.push(GraphDelta(num_added_vertices=1, added_edges=[(7, 65)]))
    >>> res.quality_final.imbalance <= 2.0 and len(sp.history) == 1
    True

    Parameters
    ----------
    graph / part:
        the current graph and its partition vector (``-1`` entries are
        allowed and resolved at the first flush).  ``graph`` may be a
        :class:`~repro.graph.csr.CSRGraph` or a
        :class:`~repro.graph.sharded.ShardedCSRGraph`; with a sharded
        graph each flush routes the composed delta through
        :meth:`~repro.graph.sharded.ShardedCSRGraph.apply_delta` (only
        touched shards are rewritten) and the LP pipeline reads the graph
        through a persistent :class:`~repro.graph.frame.BoundaryFrame`:
        untouched shards are never paged from the store, and labels and
        pivots are bit-identical to the monolithic path.  Superseded
        shard revisions are
        garbage-collected at each flush, except revisions pinned via
        :attr:`pinned_revs` because an on-disk snapshot manifest still
        references them (``PartitionSession`` pins on save/load), so an
        on-disk snapshot can never dangle and storage stays bounded at
        two revisions per shard.
    config / ``**kwargs``:
        :class:`IGPConfig` or keyword overrides for one, exactly like
        :class:`IncrementalGraphPartitioner`.
    policy:
        the :class:`FlushPolicy`; defaults to the weight/imbalance
        triggers with no pending cap.
    strict / accumulate_weights:
        forwarded to :func:`compose_deltas` / :func:`apply_delta` (see
        there); streams racing deletions against a moving graph use
        ``strict=False``.
    chunk_fraction:
        chunk size for the §2.3 fallback (see
        :func:`chunked_insertion_repartition`).
    max_history:
        keep at most this many :class:`BatchRecord` entries (oldest dropped
        first); ``None`` (default) keeps everything.  Long-lived sessions
        should bound this — each record retains the batch's composed
        delta and full repartition result.  Session totals
        (:meth:`total_wall_s`, :attr:`num_batches`) are running
        accumulators and stay exact regardless.
    """

    def __init__(
        self,
        graph: CSRGraph,
        part: np.ndarray,
        config: IGPConfig | None = None,
        *,
        policy: FlushPolicy | None = None,
        strict: bool = True,
        accumulate_weights: bool = False,
        chunk_fraction: float = 0.5,
        max_history: int | None = None,
        **kwargs,
    ):
        if max_history is not None and max_history < 1:
            raise ValidationError("max_history must be >= 1 (or None)")
        if config is None:
            config = IGPConfig(**kwargs)
        elif kwargs:
            raise APIUsageError(
                "pass either a config object or keyword overrides"
            )
        part = np.asarray(part, dtype=np.int64).copy()
        if len(part) != graph.num_vertices:
            raise GraphError("partition vector does not match the graph")
        self.config = config
        self.policy = policy if policy is not None else FlushPolicy()
        self.strict = strict
        self.accumulate_weights = accumulate_weights
        self.chunk_fraction = chunk_fraction
        self.max_history = max_history
        #: Sharded graphs only: the persistent BoundaryFrame carried
        #: across flushes — its block cache keeps untouched shards
        #: resident and its boundary superset makes each flush's LP
        #: assembly O(|boundary| + |churn|).  Attached eagerly so every
        #: block read from the very first compose/flush goes through its
        #: warm cache (not the store's tiny LRU); reset to ``None``
        #: whenever the frame's incremental state can no longer be
        #: trusted (chunked fallback, rolled-back flush).
        self._frame = None
        if hasattr(graph, "boundary_frame"):
            self._frame = graph.boundary_frame()
        self.graph = graph
        self.part = part
        self.history: list[BatchRecord] = []
        self.num_batches = 0
        self._total_wall_s = 0.0
        self._repartition_wall_s = 0.0
        self._igp = IncrementalGraphPartitioner(config)
        self._composer: DeltaComposer | None = None
        self._epoch_loads: np.ndarray | None = None
        self._epoch_unassigned = 0.0
        #: Sharded graphs only: per-shard block revisions that must
        #: survive gc because an on-disk snapshot manifest references
        #: them (set by PartitionSession on save/load).  Superseded
        #: revisions other than these are deleted at each flush, so a
        #: long-running session holds at most two revisions per shard.
        self.pinned_revs: np.ndarray | None = None
        #: Lifetime instrumentation (deltas folded, batches flushed by
        #: trigger, §2.3 chunked fallbacks) — the raw feed for the
        #: service/gateway metrics surface and for adaptive-policy work.
        #: Monotonic for this engine instance; restored sessions start
        #: fresh (history totals remain the durable record).
        self.counters: dict[str, int] = {
            "folds": 0,
            "flushes": 0,
            "fallback_flushes": 0,
        }

    # ------------------------------------------------------------------
    # Pending-state inspection
    # ------------------------------------------------------------------
    @property
    def num_pending(self) -> int:
        """Deltas accumulated since the last flush."""
        return 0 if self._composer is None else self._composer.num_folded

    @property
    def pending_delta(self) -> GraphDelta | None:
        """The composed pending delta (``None`` when nothing is pending).

        Materialised on demand; prefer the cheap accessors
        (:meth:`pending_churn_weight`, :meth:`estimated_imbalance`) in
        hot loops.
        """
        return None if self._composer is None else self._composer.to_delta()

    @property
    def warm_bases(self) -> tuple:
        """Carried LP bases of the underlying partitioner."""
        return self._igp.warm_bases

    def reset_warm_start(self) -> None:
        """Drop carried LP bases; the next batch solves cold."""
        self._igp.reset_warm_start()

    def pending_churn_weight(self) -> float:
        """Added plus deleted vertex weight of the pending composed delta
        (running totals kept by the composer — O(1))."""
        c = self._composer
        if c is None:
            return 0.0
        return c.added_weight() + c.deleted_weight()

    def _base_loads(self) -> tuple[np.ndarray, float]:
        """Per-partition loads of the current graph (cached per flush
        epoch — graph and partition vector only change at flush).

        Returns ``(loads, unassigned_weight)``; vertices still carrying
        ``-1`` behave like pending additions (they get a partition only
        at flush time).
        """
        if self._epoch_loads is None:
            assigned = self.part >= 0
            self._epoch_loads = np.bincount(
                self.part[assigned],
                weights=self.graph.vweights[assigned],
                minlength=self.config.num_partitions,
            ).astype(np.float64)
            self._epoch_unassigned = float(np.sum(self.graph.vweights[~assigned]))
        return self._epoch_loads, self._epoch_unassigned

    def estimated_imbalance(self) -> float:
        """Pessimistic post-batch imbalance if flushed right now.

        Deletions are charged exactly (their partitions are known from
        the current vector); all added weight lands on the heaviest
        surviving partition — the localized-growth worst case.  Cost per
        call is O(pending churn + P), not O(|V|).
        """
        p = self.config.num_partitions
        base_loads, unassigned = self._base_loads()
        added = unassigned
        c = self._composer
        loads = base_loads
        if c is not None and c.deleted_old_vertices:
            dead = np.fromiter(c.deleted_old_vertices, dtype=np.int64)
            dead = dead[self.part[dead] >= 0]
            if len(dead):
                loads = base_loads - np.bincount(
                    self.part[dead],
                    weights=self.graph.vweights[dead],
                    minlength=p,
                )
        if c is not None:
            added += c.added_weight()
        total = float(loads.sum()) + added
        if total <= 0:
            return 1.0
        lam = total / p
        return (float(loads.max()) + added) / lam

    # ------------------------------------------------------------------
    # Stream consumption
    # ------------------------------------------------------------------
    def push(self, delta: GraphDelta) -> RepartitionResult | None:
        """Fold one delta into the pending batch; flush if the policy fires.

        Returns the batch's :class:`RepartitionResult` when a flush
        happened, ``None`` while the delta is merely accumulated.
        """
        self.fold_pending(delta)
        return self.maybe_flush()

    def fold_pending(self, delta: GraphDelta) -> None:
        """Fold one delta into the pending batch *without* consulting the
        flush policy.

        This is the externally-driven half of :meth:`push`: a service
        layer batching N concurrent pushes folds each delta here and then
        calls :meth:`maybe_flush` once, so the whole batch costs one
        policy check (and at most one LP solve) instead of N.
        """
        if self._composer is None:
            self._composer = DeltaComposer(
                self.graph,
                strict=self.strict,
                accumulate_weights=self.accumulate_weights,
            )
        self._composer.fold(delta)
        self.counters["folds"] += 1

    def maybe_flush(self) -> RepartitionResult | None:
        """Flush now if the :class:`FlushPolicy` fires against the pending
        state; the policy-check half of :meth:`push`."""
        trigger = self._policy_trigger()
        if trigger is not None:
            return self.flush(trigger=trigger)
        return None

    def extend(self, deltas) -> list[RepartitionResult]:
        """Push many deltas; returns the results of the flushes that fired."""
        results = []
        for d in deltas:
            res = self.push(d)
            if res is not None:
                results.append(res)
        return results

    def _policy_trigger(self) -> str | None:
        pol = self.policy
        if pol.max_pending is not None and self.num_pending >= pol.max_pending:
            return "max_pending"
        if pol.weight_fraction is not None:
            lam = self.graph.total_vertex_weight / self.config.num_partitions
            if self.pending_churn_weight() > pol.weight_fraction * lam:
                return "weight"
        if pol.imbalance_limit is not None:
            if self.estimated_imbalance() > pol.imbalance_limit:
                return "imbalance"
        return None

    def flush(self, trigger: str = "explicit") -> RepartitionResult | None:
        """Apply the pending composed delta and repartition.

        Falls back to chunked insertion on
        :class:`RepartitionInfeasibleError`; if even that fails the error
        propagates and the session state is left untouched (the flush can
        be retried with a different config).  Returns ``None`` when
        nothing is pending.
        """
        if self._composer is None:
            return None
        composed = self._composer.to_delta()
        num_deltas = self._composer.num_folded
        tracer = get_tracer()
        sharded = hasattr(self.graph, "iter_shards")
        with tracer.span(
            "flush", {"num_deltas": num_deltas, "trigger": trigger}
        ) as fsp:
            with tracer.span("flush.apply") as asp:
                if sharded:
                    inc = self.graph.apply_delta(
                        composed,
                        strict=self.strict,
                        accumulate_weights=self.accumulate_weights,
                    )
                    asp.set("touched", len(inc.touched_shards))
                    asp.set("arcs", inc.arcs_written)
                else:
                    inc = apply_delta(
                        self.graph,
                        composed,
                        strict=self.strict,
                        accumulate_weights=self.accumulate_weights,
                    )
            fallback = False
            # Everything after apply_delta — frame advancement, LP
            # pipeline, fallback — sits inside the rollback scope: a
            # failure anywhere must not leak the block revisions the
            # delta just wrote.
            try:
                carried = carry_partition(self.part, inc)
                with tracer.span("flush.repartition") as rsp:
                    frame = self._advance_frame(inc, composed) if sharded else None
                    view = inc.graph if frame is None else frame
                    if frame is not None:
                        hits0, fetches0 = frame.block_hits, frame.block_fetches
                    try:
                        result = self._igp.repartition(view, carried)
                    except RepartitionInfeasibleError:
                        fallback = True
                        # The §2.3 chunked driver re-inserts vertices from
                        # scratch — a whole-graph solve, so the one-shot
                        # monolithic assembly is the honest cost here, and
                        # the frame's incremental state dies with the
                        # failed trajectory.
                        self._drop_frame()
                        dense = inc.graph.to_csr() if sharded else inc.graph  # repro: ignore[RPR801] - chunked fallback is a from-scratch whole-graph solve
                        result = chunked_insertion_repartition(
                            dense,
                            carried,
                            self.config,
                            chunk_fraction=self.chunk_fraction,
                        )
                        # The chunked driver ran its own partitioner;
                        # carried bases describe a trajectory that no
                        # longer exists.
                        self._igp.reset_warm_start()
                    else:
                        if frame is not None:
                            fsp.set("frame_hits", frame.block_hits - hits0)
                            fsp.set("frame_fetches", frame.block_fetches - fetches0)
                self._repartition_wall_s += rsp.duration_s
            except BaseException:
                if sharded:
                    # Roll back the shard revisions the failed batch wrote;
                    # self.graph (the pre-delta handle) stays authoritative.
                    # The frame may already have advanced onto them — drop it.
                    self._drop_frame()
                    inc.graph.drop_blocks_not_in(self.graph)
                raise
            wall = asp.duration_s + rsp.duration_s
            fsp.set("pivots", int(sum(s.lp_iterations for s in result.stages)))
            fsp.set("stages", result.num_stages)
            if fallback:
                fsp.set("fallback", True)
            old_graph = self.graph
            self.graph = inc.graph
            if sharded:
                self._gc_superseded(old_graph)
            self._composer = None
            self._record_batch(
                num_deltas=num_deltas,
                composed=composed,
                trigger=trigger,
                result=result,
                fallback=fallback,
                wall=wall,
                apply_s=asp.duration_s,
            )
        return result

    def _advance_frame(self, inc, composed: GraphDelta):
        """Carry the persistent boundary frame across a flush's delta.

        Steady state is :meth:`~repro.graph.frame.BoundaryFrame.advance`
        — O(churn) remaps, touched blocks dropped from the cache, the
        boundary superset extended by the churn sites.  A cold start (or
        a frame invalidated by a fallback/rollback) attaches fresh to the
        post-delta graph; its first boundary query is one full sweep.
        """
        if self._frame is None or self._frame.graph is not self.graph:
            self._drop_frame()
            self._frame = inc.graph.boundary_frame()
        else:
            self._frame.advance(inc, composed)
        return self._frame

    def _current_frame(self):
        """The frame for the *current* graph, creating one if needed
        (sharded graphs only — callers check)."""
        if self._frame is None or self._frame.graph is not self.graph:
            self._drop_frame()
            self._frame = self.graph.boundary_frame()
        return self._frame

    def _drop_frame(self) -> None:
        """Discard the boundary frame (if any), returning its handle to
        direct store loads by uninstalling the frame's block hook."""
        if self._frame is not None:
            self._frame.detach()
            self._frame = None

    @property
    def quality_view(self):
        """The graph view quality metrics read for the current epoch:
        the live :class:`~repro.graph.frame.BoundaryFrame` when there is
        one (boundary rows only, no shard paging), else :attr:`graph`
        itself — a :class:`~repro.graph.csr.CSRGraph`, or a sharded
        handle whose frame is cold or was invalidated, which the metrics
        stream shard by shard."""
        frame = self._frame
        if frame is not None and frame.graph is self.graph:
            return frame
        return self.graph

    def repartition(self, trigger: str = "repartition") -> RepartitionResult:
        """Repartition *now*: flush the pending batch, or — when nothing
        is pending — run the LP pipeline on the current graph as-is.

        The empty-batch case is what a restored session uses to prove its
        warm bases: the pipeline re-balances/refines the carried partition
        and is recorded as a zero-delta batch.
        """
        result = self.flush(trigger=trigger)
        if result is not None:
            return result
        tracer = get_tracer()
        sharded = hasattr(self.graph, "iter_shards")
        with tracer.span("flush", {"num_deltas": 0, "trigger": trigger}) as fsp:
            with tracer.span("flush.repartition") as rsp:
                view = self._current_frame() if sharded else self.graph
                result = self._igp.repartition(view, self.part)
            self._repartition_wall_s += rsp.duration_s
            fsp.set("pivots", int(sum(s.lp_iterations for s in result.stages)))
            fsp.set("stages", result.num_stages)
            self._record_batch(
                num_deltas=0,
                composed=GraphDelta(),
                trigger=trigger,
                result=result,
                fallback=False,
                wall=rsp.duration_s,
            )
        return result

    def _gc_superseded(self, old_graph) -> None:
        """Drop the pre-flush block revisions that no snapshot manifest
        pins (see :attr:`pinned_revs`); the freshly adopted
        :attr:`graph` keeps its own revisions."""
        from repro.graph.sharded import shard_key

        pinned = self.pinned_revs
        new_revs = self.graph.revs
        for sid in range(old_graph.num_shards):
            old_rev = int(old_graph.revs[sid])
            if old_rev == int(new_revs[sid]):
                continue
            if pinned is not None and int(pinned[sid]) == old_rev:
                continue
            old_graph.store.delete(shard_key(sid, old_rev))

    def _record_batch(
        self, *, num_deltas, composed, trigger, result, fallback, wall,
        apply_s=0.0,
    ) -> None:
        """Batch bookkeeping shared by :meth:`flush` and :meth:`repartition`:
        adopt the new partition, account the batch, trim history."""
        self.part = result.part
        self.num_batches += 1
        self._total_wall_s += wall
        self.counters["flushes"] += 1
        if fallback:
            self.counters["fallback_flushes"] += 1
        phases = {k: float(v) for k, v in result.timings.items()}
        phases["apply"] = float(apply_s)
        self.history.append(
            BatchRecord(
                num_deltas=num_deltas,
                composed=composed,
                trigger=trigger,
                result=result,
                fallback=fallback,
                wall_s=wall,
                phases=phases,
            )
        )
        if self.max_history is not None and len(self.history) > self.max_history:
            del self.history[: len(self.history) - self.max_history]
        self._epoch_loads = None  # new graph/part: recompute lazily

    # ------------------------------------------------------------------
    # Snapshot restore (used by repro.session.PartitionSession.load)
    # ------------------------------------------------------------------
    def restore_state(
        self,
        *,
        pending: GraphDelta | None = None,
        num_pending: int = 0,
        warm_bases: tuple = (None, None),
        num_batches: int = 0,
        total_wall_s: float = 0.0,
    ) -> None:
        """Reinstate mid-stream state captured by a session snapshot.

        ``pending`` is the *composed* pending delta relative to
        :attr:`graph`; it is folded into a fresh composer (composition is
        associative, so one fold reproduces the accumulated state) and
        ``num_pending`` restores the original fold count so a
        ``max_pending`` policy keeps firing on the same schedule.
        ``warm_bases`` is the ``(balance, refine)`` pair from
        :attr:`warm_bases`; the counters restore session accounting.
        """
        if pending is not None:
            composer = DeltaComposer(
                self.graph,
                strict=self.strict,
                accumulate_weights=self.accumulate_weights,
            )
            composer.fold(pending)
            composer.num_folded = max(int(num_pending), 1)
            self._composer = composer
        else:
            self._composer = None
        self._igp.seed_warm_start(warm_bases)
        self.num_batches = int(num_batches)
        self._total_wall_s = float(total_wall_s)
        self._epoch_loads = None

    # ------------------------------------------------------------------
    # Session-level accounting
    # ------------------------------------------------------------------
    def total_wall_s(self) -> float:
        """Wall-clock spent repartitioning across all flushed batches
        (a running total; unaffected by ``max_history`` trimming)."""
        return self._total_wall_s

    def repartition_wall_s(self) -> float:
        """Wall-clock spent in LP *assembly + solve* across all batches:
        the frame advance plus the repartition pipeline, excluding delta
        composition and shard-store writes.  This is the window the
        shard-native bench gate compares against the monolithic run — a
        monolithic assembly sneaking back onto the flush path shows up
        here first."""
        return self._repartition_wall_s

    def describe(self) -> str:
        """Multi-line session log (one line per flushed batch)."""
        lines = [
            f"StreamingPartitioner: |V|={self.graph.num_vertices} "
            f"P={self.config.num_partitions} batches={self.num_batches} "
            f"pending={self.num_pending}"
        ]
        lines.extend(f"  {rec.summary()}" for rec in self.history)
        return "\n".join(lines)
