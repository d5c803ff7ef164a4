"""Mid-query adaptive re-optimization: drift-triggered suffix re-planning.

The paper's placement strategies rank on *declared* selectivities and
per-call costs; when those statistics lie, the chosen placement can be
arbitrarily bad ("Debunking the Myth of Join Ordering": cardinality
misestimation, not search, is the enemy of plan quality). This module
closes the loop at run time: observe the per-predicate pass rates the
executor is actually seeing, compare them against the declarations with
the shared q-error machinery, and — when drift crosses a threshold —
re-enter the dirty-stream migration planner on the *unexecuted* part of
the query with feedback-corrected statistics, splicing the improved
predicate placement into the live pipeline.

Why splicing mid-query is safe here
-----------------------------------

The batch engine cuts the spine leaf's batches at power-of-two leaf-row
milestones and sends a boundary marker up the spine ahead of the batch
that starts at each one; every spine join flushes its partial output
ahead of the marker, and the plan root (or a pipeline breaker) absorbs
it and calls :meth:`AdaptiveController.on_boundary`. At that instant
every earlier leaf row has flowed as far up the pipeline as it can go
and no later row has entered a filter — the *leaf boundary* is a safe
suspension point: every earlier row has fully flowed through the old
placement, and the boundary row plus all future rows flow through the
new one. Because :class:`~repro.exec.vector.BatchFilter` re-reads its
node's filter list before every batch and
:class:`~repro.exec.vector.BatchIndexNestedLoopJoin` re-reads its inner
scan's list before every outer batch, mutating plan-node filter lists
**in place** (``node.filters[:] = ...``, never rebinding) re-places
predicates for all future rows without rebuilding operators,
discarding completed work, or re-charging anything: each row is
evaluated against each predicate exactly once, at whichever slot held
the predicate when the row passed through.

Pipeline breakers bound the movable region. A spine merge join buffers
*both* inputs and a (potentially Grace) hash join may buffer its outer,
so rows already inside a breaker have passed every filter below it but
none above: moving a predicate across the breaker would double- or
never-evaluate those buffered rows. Predicate moves are therefore
restricted to slots strictly below the lowest breaker on the spine, and
predicates whose current placement sits on an already-materialised
inner scan (nested-loop/merge/hash inners evaluate their filters once,
during materialisation) are frozen.

Everything is wrapped in guardrails — a re-plan budget, placement
hysteresis (an A→B→A oscillation is refused), an estimated-improvement
check, and a migration→pushdown fallback ladder when suffix planning
itself fails — and every trigger, application, and refusal is recorded
as a ``plan.replan`` provenance-ledger event and a ``replan`` note on
the execution event stream (which a flight recorder keeps), so
``repro why`` and ``repro postmortem`` can replay the story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel
from repro.cost.params import CostParams
from repro.errors import PlanError, ReproError
from repro.expr.predicates import Predicate
from repro.obs.events import NO_EVENTS, ExecutionListener
from repro.obs.feedback import FeedbackCollector, predicate_fingerprint
from repro.obs.provenance import NULL_LEDGER
from repro.obs.quality import DRIFT_QERROR_THRESHOLD, detect_drift
from repro.optimizer.migration import migrate_node
from repro.plan.nodes import JoinMethod, PlanNode, Scan
from repro.plan.streams import Spine, movable_predicates, spine_of

#: Hard cap on retained trigger-log entries (the provenance ledger and
#: the event stream get every event regardless; this only bounds the
#: in-memory report). Boundaries are power-of-two leaf-row milestones,
#: so real runs stay far below it.
MAX_TRIGGER_EVENTS = 64

#: Spine join methods that buffer the spine stream: merge sorts both
#: inputs; hash may go Grace and materialise its outer. Treating every
#: hash join as a potential breaker is conservative (the Grace decision
#: is only known at run time) but never unsafe.
_BREAKER_METHODS = (JoinMethod.MERGE, JoinMethod.HASH)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Knobs of the mid-query re-optimization loop."""

    #: q-error of declared vs observed predicate selectivity beyond which
    #: the statistics are considered drifted (`--drift-threshold`).
    drift_threshold: float = DRIFT_QERROR_THRESHOLD
    #: Re-plan budget: at most this many applied re-entries per query
    #: (`--max-replans`).
    max_replans: int = 2
    #: Observations required per predicate before its pass rate is
    #: trusted enough to call drift.
    min_samples: int = 32


@dataclass
class AdaptiveReport:
    """What the adaptive controller did during one execution."""

    enabled: bool = True
    #: ``False`` when the plan shape disqualified adaptivity up front
    #: (e.g. a bushy tree has no spine to re-place along).
    active: bool = True
    disabled_reason: str = ""
    leaf_rows: int = 0
    boundaries: int = 0
    triggers: int = 0
    replans: int = 0
    refusals: int = 0
    converged: int = 0
    #: Bounded trigger log (every entry also went to the ledger and the
    #: event stream); entries are the ``plan.replan`` event payloads.
    events: list[dict] = field(default_factory=list)

    def note(self, event: dict) -> None:
        if len(self.events) < MAX_TRIGGER_EVENTS:
            self.events.append(event)

    def as_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "active": self.active,
            "disabled_reason": self.disabled_reason,
            "leaf_rows": self.leaf_rows,
            "boundaries": self.boundaries,
            "triggers": self.triggers,
            "replans": self.replans,
            "refusals": self.refusals,
            "converged": self.converged,
            "events": list(self.events),
        }


class CorrectedCostModel(CostModel):
    """A cost model whose join selectivities defer to run-time
    observations.

    Predicate (filter) selectivities are corrected by temporarily
    setting the shared :class:`Predicate` objects' declared values (the
    migration planner reads them through the model); join-predicate
    selectivities live behind :meth:`CostModel.join_selectivity`'s
    ndistinct heuristic, so the override is injected here, keyed by
    ``pred_id``.
    """

    def __init__(
        self,
        catalog: Catalog,
        params: CostParams,
        caching: bool,
        join_selectivities: dict[int, float] | None = None,
    ) -> None:
        super().__init__(catalog, params, caching=caching)
        self._observed_join_sel = join_selectivities or {}

    def join_selectivity(self, predicate: Predicate) -> float:
        observed = self._observed_join_sel.get(predicate.pred_id)
        if observed is not None:
            return observed
        return super().join_selectivity(predicate)


def placement_signature(
    spine: Spine, movable: list[Predicate], entries: dict[int, int]
) -> tuple[tuple[int, int], ...]:
    """Canonical form of a placement: sorted ``(pred_id, slot)`` pairs.

    The hysteresis guardrail refuses to re-apply any signature this
    query has already realised, which kills A→B→A flapping dead.
    """
    return tuple(
        sorted(
            (predicate.pred_id, _slot_of(spine, predicate, entries))
            for predicate in movable
        )
    )


def _slot_of(spine: Spine, predicate: Predicate, entries: dict[int, int]) -> int:
    """Slot of ``predicate``'s current position in ``spine``'s tree."""
    entry = entries[predicate.pred_id]
    owner = spine.top.find_filter(predicate)
    for spine_join in spine.joins:
        if owner is spine_join.join:
            return spine_join.slot
        if owner is spine_join.join.inner:
            return entry
    return entry


class AdaptiveController(ExecutionListener):
    """Drift monitor + suffix re-planner for one execution.

    Listens on the execution event stream — predicate verdicts feed its
    private feedback tallies, and batch events of the nodes in
    :attr:`tap_ids` count node output (join fan-out observation) — and
    doubles as the runtime ``feed``: the spine leaf reports the rows it
    hands up (:meth:`on_leaf_rows`), and :meth:`on_boundary` fires at
    each safe leaf boundary. The controller never charges the meter and
    never changes a row — a zero-replan adaptive run is charge- and
    row-identical to a non-adaptive one.
    """

    def __init__(
        self,
        root: PlanNode,
        *,
        catalog: Catalog,
        params: CostParams,
        meter,
        caching: bool = False,
        policy: AdaptivePolicy | None = None,
        ledger=NULL_LEDGER,
        stats_store=None,
        stats_meta: dict | None = None,
    ) -> None:
        self.root = root
        self.catalog = catalog
        self.params = params
        self.meter = meter
        self.caching = caching
        self.policy = policy or AdaptivePolicy()
        self.ledger = ledger
        self.cache = None  # the run's predicate cache, from ``on_start``
        self.events = NO_EVENTS  # the run's event stream, likewise
        self.stats_store = stats_store
        self.stats_meta = dict(stats_meta or {})
        self.report = AdaptiveReport()
        self.active = True

        self._feedback = FeedbackCollector()
        self._pred_objects: dict[int, Predicate] = {}
        self._counts: dict[int, int] = {}
        self._leaf_rows = 0
        self._boundary_row = 0
        self._seen_signatures: set[tuple] = set()
        self._reported_drift: set[tuple] = set()
        self._budget_refused = False

        self.leaf_id = -1
        self.tap_ids: frozenset[int] = frozenset()
        try:
            self._spine = spine_of(root)
        except PlanError as error:
            self._disable(f"not-left-deep: {error}")
            return
        self._movable = movable_predicates(self._spine)
        self._entries = {
            predicate.pred_id: self._spine.entry_slot(predicate)
            for predicate in self._movable
        }
        self.leaf_id = id(self._spine.leaf)
        # Taps: every spine node's (post-filter) output, plus each
        # materialised inner, so observed join fan-outs can correct the
        # re-plan cost model.
        taps = {self.leaf_id}
        for spine_join in self._spine.joins:
            taps.add(id(spine_join.join))
            if spine_join.join.method is not JoinMethod.INDEX_NESTED_LOOP:
                taps.add(id(spine_join.join.inner))
        self.tap_ids = frozenset(taps)
        # Inner scans of non-index joins evaluate their filters once,
        # during materialisation — dead placements for live moves.
        self._dead_scan_ids = {
            id(spine_join.join.inner)
            for spine_join in self._spine.joins
            if spine_join.join.method is not JoinMethod.INDEX_NESTED_LOOP
            and isinstance(spine_join.join.inner, Scan)
        }
        breakers = [
            spine_join.slot
            for spine_join in self._spine.joins
            if spine_join.join.method in _BREAKER_METHODS
        ]
        self._breaker_slot = min(breakers) if breakers else math.inf
        if not self._movable:
            self._disable("no movable predicates")
            return
        self._seen_signatures.add(
            placement_signature(self._spine, self._movable, self._entries)
        )

    def _disable(self, reason: str) -> None:
        self.active = False
        self.report.active = False
        self.report.disabled_reason = reason

    # -- event listener ----------------------------------------------------

    def on_start(self, root, ctx) -> None:
        self.cache = ctx.cache
        self.events = ctx.events

    def on_batch(self, key, rows, seconds, delta) -> None:
        if rows is not None and key in self.tap_ids:
            self._counts[key] = self._counts.get(key, 0) + rows

    def on_verdicts(
        self, predicate: Predicate, evaluated: int, passed: int, charges
    ) -> None:
        self._feedback.on_verdicts(predicate, evaluated, passed, charges)
        self._pred_objects.setdefault(predicate.pred_id, predicate)

    # -- runtime feed surface ----------------------------------------------

    def on_leaf_rows(self, rows: int) -> None:
        self._leaf_rows += rows
        self.report.leaf_rows = self._leaf_rows

    def on_boundary(self) -> None:
        """Leaf row ``leaf_rows + 1`` is next, and every earlier leaf
        row has flowed as far as it can: check for drift and, when it
        pays, splice a re-planned placement in."""
        self._boundary_row = self._leaf_rows + 1
        if not self.active:
            return
        self.report.boundaries += 1
        self._check_drift()

    # -- drift detection ---------------------------------------------------

    def _observations(self) -> list:
        minimum = self.policy.min_samples
        return [
            observation
            for observation in self._feedback.observations()
            if observation.evaluated >= minimum
        ]

    def _check_drift(self) -> None:
        observations = self._observations()
        if not observations:
            return
        findings = [
            finding
            for finding in detect_drift(
                observations, self.policy.drift_threshold
            )
            if finding.field == "selectivity"
        ]
        if not findings:
            return
        if self.ledger.enabled:
            for finding in findings:
                key = (finding.subject, finding.field, finding.reason)
                if key not in self._reported_drift:
                    self._reported_drift.add(key)
                    self.ledger.record("stats.drift", **finding.as_dict())
        self._trigger(findings, observations)

    # -- the trigger path --------------------------------------------------

    def _event(self, action: str, **data) -> None:
        event = {
            "action": action,
            "leaf_rows": self._boundary_row,
            "charged": self.meter.charged,
            "replans": self.report.replans,
            **data,
        }
        if action == "applied":
            event["cache_entries"] = (
                self.cache.total_entries() if self.cache is not None else 0
            )
        self.report.note(event)
        if self.ledger.enabled:
            self.ledger.record("plan.replan", **event)
        self.events.note("replan", **event)

    def _trigger(self, findings: list, observations: list) -> None:
        self.report.triggers += 1
        drift = [finding.describe() for finding in findings]
        if self.report.replans >= self.policy.max_replans:
            if not self._budget_refused:
                self._budget_refused = True
                self.report.refusals += 1
                self._event(
                    "refused",
                    reason=f"replan budget exhausted "
                    f"(max_replans={self.policy.max_replans})",
                    drift=drift,
                )
            self._disable("replan budget exhausted")
            return
        proposal = self._propose(observations)
        if proposal is None:
            self.report.refusals += 1
            self._event(
                "refused", reason="suffix planning failed on every rung",
                drift=drift,
            )
            return
        placements, rung = proposal
        safe, frozen = self._safe_moves(placements)
        if not safe:
            self.report.converged += 1
            self._event(
                "converged",
                reason="proposed placement already realised "
                "(or all moves frozen by pipeline breakers)",
                drift=drift,
                frozen=frozen,
            )
            return
        signature = self._signature_after(safe)
        if signature in self._seen_signatures:
            self.report.refusals += 1
            self._event(
                "refused",
                reason="oscillation damped: placement signature "
                "was already realised this query",
                drift=drift,
                moves=self._describe_moves(safe),
            )
            return
        gain = self._estimated_gain(safe, observations)
        if not gain > 0:
            self.report.refusals += 1
            self._event(
                "refused",
                reason="no estimated improvement under corrected stats",
                drift=drift,
                estimated_gain=gain,
                moves=self._describe_moves(safe),
            )
            return
        moves = self._describe_moves(safe)
        self._apply(safe)
        self._seen_signatures.add(signature)
        self.report.replans += 1
        self._event(
            "applied",
            rung=rung,
            drift=drift,
            moves=moves,
            estimated_gain=gain,
            frozen=frozen,
        )
        self._record_epoch()

    # -- suffix re-planning ------------------------------------------------

    def _observed_selectivities(self, observations: list) -> dict[int, float]:
        """``pred_id`` → observed pass rate, for observed live predicates."""
        by_fingerprint = {
            observation.fingerprint: observation
            for observation in observations
        }
        corrected: dict[int, float] = {}
        for predicate in self._pred_objects.values():
            observation = by_fingerprint.get(predicate_fingerprint(predicate))
            if observation is not None and observation.evaluated > 0:
                value = observation.observed_selectivity
                if 0.0 <= value <= 1.0:
                    corrected[predicate.pred_id] = value
        return corrected

    def _observed_join_selectivities(self) -> dict[int, float]:
        """Join-primary ``pred_id`` → observed pair pass rate, from the
        spine taps (rows out of the join vs outer rows in × inner rows
        materialised)."""
        observed: dict[int, float] = {}
        below: PlanNode = self._spine.leaf
        for spine_join in self._spine.joins:
            join = spine_join.join
            rows_in = self._counts.get(id(below), 0)
            rows_out = self._counts.get(id(join), 0)
            inner_rows = self._counts.get(id(join.inner), 0)
            if (
                rows_in >= self.policy.min_samples
                and rows_out > 0
                and inner_rows > 0
                and join.primary is not None
            ):
                observed[join.primary.pred_id] = min(
                    1.0, rows_out / (rows_in * inner_rows)
                )
            below = join
        return observed

    def _corrected_model(self, observations: list) -> CorrectedCostModel:
        return CorrectedCostModel(
            self.catalog,
            self.params,
            self.caching,
            self._observed_join_selectivities(),
        )

    def _propose(
        self, observations: list
    ) -> tuple[dict[Predicate, int], str] | None:
        """Re-plan the suffix on a clone with corrected stats.

        Returns the proposed slot per movable predicate plus the ladder
        rung that produced it (``migration``, falling back to
        ``pushdown`` when dirty-stream migration itself fails), or
        ``None`` when every rung failed. The clone shares predicate
        objects with the live tree, so declared selectivities are
        snapshot, overwritten with observations, and restored — the
        corrections must never leak into other strategies or runs.
        """
        corrected_sel = self._observed_selectivities(observations)
        snapshot = {
            id(predicate): predicate.selectivity
            for predicate in self._pred_objects.values()
        }
        try:
            for predicate in self._pred_objects.values():
                value = corrected_sel.get(predicate.pred_id)
                if value is not None:
                    predicate.selectivity = value
            clone = self.root.clone()
            model = self._corrected_model(observations)
            model.memo_enable()
            try:
                migrate_node(clone, model)
                rung = "migration"
            except ReproError:
                # Fallback ladder: the pushdown floor (every movable
                # predicate at its entry slot) is always plannable.
                try:
                    clone = self.root.clone()
                    spine = spine_of(clone)
                    spine.apply_placement(
                        {
                            predicate: self._entries[predicate.pred_id]
                            for predicate in self._movable
                        }
                    )
                    rung = "pushdown"
                except ReproError:
                    return None
            clone_spine = spine_of(clone)
            placements = {
                predicate: _slot_of(clone_spine, predicate, self._entries)
                for predicate in self._movable
            }
            return placements, rung
        finally:
            for predicate in self._pred_objects.values():
                predicate.selectivity = snapshot[id(predicate)]

    # -- safety filtering and application ---------------------------------

    def _safe_moves(
        self, placements: dict[Predicate, int]
    ) -> tuple[dict[Predicate, int], int]:
        """Keep only moves whose source and target are live sub-breaker
        locations; returns (safe moves, frozen-move count)."""
        safe: dict[Predicate, int] = {}
        frozen = 0
        for predicate, target in placements.items():
            current = _slot_of(self._spine, predicate, self._entries)
            if target == current:
                continue
            owner = self._spine.top.find_filter(predicate)
            if owner is not None and id(owner) in self._dead_scan_ids:
                frozen += 1  # filters already consumed by materialisation
                continue
            if not (
                current < self._breaker_slot
                and target < self._breaker_slot
            ):
                frozen += 1
                continue
            target_node = self._spine.node_at_slot(predicate, target)
            if id(target_node) in self._dead_scan_ids:
                frozen += 1
                continue
            safe[predicate] = target
        return safe, frozen

    def _signature_after(
        self, safe: dict[Predicate, int]
    ) -> tuple[tuple[int, int], ...]:
        pairs = []
        for predicate in self._movable:
            slot = safe.get(predicate)
            if slot is None:
                slot = _slot_of(self._spine, predicate, self._entries)
            pairs.append((predicate.pred_id, slot))
        return tuple(sorted(pairs))

    def _describe_moves(self, safe: dict[Predicate, int]) -> list[dict]:
        return [
            {
                "predicate": str(predicate),
                "from_slot": _slot_of(self._spine, predicate, self._entries),
                "to_slot": slot,
            }
            for predicate, slot in sorted(
                safe.items(), key=lambda item: str(item[0])
            )
        ]

    def _estimated_gain(
        self, safe: dict[Predicate, int], observations: list
    ) -> float:
        """Estimated cost saved by the safe placement, both sides priced
        under the *corrected* model (prefix work is sunk either way, so
        the whole-plan delta is the suffix delta)."""
        corrected_sel = self._observed_selectivities(observations)
        snapshot = {
            id(predicate): predicate.selectivity
            for predicate in self._pred_objects.values()
        }
        try:
            for predicate in self._pred_objects.values():
                value = corrected_sel.get(predicate.pred_id)
                if value is not None:
                    predicate.selectivity = value
            model = self._corrected_model(observations)
            current_cost = model.estimate_plan(self.root).cost
            clone = self.root.clone()
            spine_of(clone).apply_placement(dict(safe))
            proposed_cost = model.estimate_plan(clone).cost
            return current_cost - proposed_cost
        except ReproError:
            return float("nan")
        finally:
            for predicate in self._pred_objects.values():
                predicate.selectivity = snapshot[id(predicate)]

    def _apply(self, safe: dict[Predicate, int]) -> None:
        """Splice the new placement into the live tree **in place**.

        Mirrors :meth:`Spine.apply_placement`'s remove-then-append (rank
        order) semantics, but slice-assigns each touched node's existing
        filter list — built operators alias those exact list objects, so
        rebinding would silently change nothing.
        """
        moved_ids = {predicate.pred_id for predicate in safe}
        arrivals: dict[int, tuple[PlanNode, list[Predicate]]] = {}
        for predicate, slot in sorted(
            safe.items(), key=lambda item: item[0].rank
        ):
            node = self._spine.node_at_slot(predicate, slot)
            arrivals.setdefault(id(node), (node, []))[1].append(predicate)
        touched: dict[int, PlanNode] = {}
        for node in self._spine.top.walk():
            if any(
                predicate.pred_id in moved_ids for predicate in node.filters
            ):
                touched[id(node)] = node
        for node_id, (node, _preds) in arrivals.items():
            touched[node_id] = node
        for node in touched.values():
            final = [
                predicate
                for predicate in node.filters
                if predicate.pred_id not in moved_ids
            ]
            entry = arrivals.get(id(node))
            if entry is not None:
                final.extend(entry[1])
            node.filters[:] = final

    # -- mid-query feedback epochs ----------------------------------------

    def _record_epoch(self) -> None:
        """Snapshot the observations backing this re-plan into the stats
        store (when wired), as a *mid-query* epoch: same epoch number the
        run's end-of-run epoch will get, sequence = replan ordinal."""
        if self.stats_store is None:
            return
        self.stats_store.record_epoch(
            self._feedback.observations(),
            strategy=self.stats_meta.get("strategy", "adaptive"),
            scale=self.stats_meta.get("scale", 0),
            seed=self.stats_meta.get("seed", 0),
            caching=self.caching,
            sequence=self.report.replans,
        )
