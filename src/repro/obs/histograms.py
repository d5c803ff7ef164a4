"""Streaming log-bucketed histograms with quantile estimates.

Keeping every observation is fine for a handful of planning times but
not for one sample per predicate evaluation on a million-row run. This
class keeps O(log range) state instead: powers-of-two buckets — the same
log-scale convention :func:`~repro.obs.quality.qerror_histogram` uses —
plus exact count/sum/min/max, and estimates p50/p90/p99 by nearest-rank
walk over the buckets with the bucket's geometric midpoint clamped into
the observed ``[min, max]`` range (so a single-sample histogram reports
that sample exactly).

Edge semantics are pinned once, mirroring :func:`~repro.obs.quality.qerror`'s
explicit zero/nan/inf treatment:

* ``nan`` and negative observations are *dropped* (counted in
  ``dropped``, never bucketed — no magnitude to place);
* ``0.0`` lands in its own zero bucket (``log2`` has no bucket for it);
* ``inf`` lands in the ``inf`` bucket and surfaces in a quantile only
  when the rank genuinely falls there;
* an empty histogram reports ``nan`` for every quantile and the mean.

Serialisation follows the artifact conventions: buckets emitted in
ascending order, floats through :func:`~repro.obs.quality.fmt_stat`, no
ids or hashes anywhere — byte-stable across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math

from repro.obs.quality import fmt_stat

#: The default quantiles every report shows.
DEFAULT_QUANTILES = (0.50, 0.90, 0.99)


def _bucket_label(power: int) -> str:
    """``[2^p, 2^(p+1))`` with ``%g`` bounds (negative powers included)."""
    return f"[{2.0 ** power:g},{2.0 ** (power + 1):g})"


class StreamingHistogram:
    """Log-bucketed (base-2) streaming histogram of non-negative values."""

    __slots__ = (
        "counts",
        "zeros",
        "infinite",
        "dropped",
        "finite_sum",
        "minimum",
        "maximum",
    )

    def __init__(self) -> None:
        #: Count per power-of-two bucket: ``counts[p]`` covers
        #: ``[2^p, 2^(p+1))``.
        self.counts: dict[int, int] = {}
        self.zeros = 0
        self.infinite = 0
        self.dropped = 0
        self.finite_sum = 0.0
        self.minimum = math.inf  # over finite observations only
        self.maximum = -math.inf

    @property
    def count(self) -> int:
        """Observations placed (zeros + bucketed + infinite; not dropped)."""
        return self.zeros + sum(self.counts.values()) + self.infinite

    @property
    def finite_count(self) -> int:
        return self.zeros + sum(self.counts.values())

    @property
    def mean(self) -> float:
        """Mean over finite observations; ``nan`` when there are none."""
        finite = self.finite_count
        if finite <= 0:
            return math.nan
        return self.finite_sum / finite

    def observe(self, value: float) -> None:
        if math.isnan(value) or value < 0:
            self.dropped += 1
            return
        if math.isinf(value):
            self.infinite += 1
            return
        if value == 0.0:
            self.zeros += 1
        else:
            power = math.floor(math.log2(value))
            self.counts[power] = self.counts.get(power, 0) + 1
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.finite_sum += value
        # A zero observation extends the finite range down to 0 so
        # quantile clamping can actually return 0.
        if value == 0.0:
            if self.minimum > 0.0 or self.minimum == math.inf:
                self.minimum = 0.0
            if self.maximum < 0.0:
                self.maximum = 0.0

    def merge(self, other: "StreamingHistogram") -> None:
        for power, count in other.counts.items():
            self.counts[power] = self.counts.get(power, 0) + count
        self.zeros += other.zeros
        self.infinite += other.infinite
        self.dropped += other.dropped
        self.finite_sum += other.finite_sum
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile estimate; ``fraction`` in [0, 1].

        The rank's bucket answers with its geometric midpoint clamped
        into the observed finite range — exact for single-sample and
        single-bucket-edge cases, within a factor of ``sqrt(2)``
        otherwise. A rank falling among the ``inf`` observations
        answers ``inf``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"fraction must be in [0, 1], got {fraction}"
            )
        total = self.count
        if total <= 0:
            return math.nan
        rank = min(total, max(1, math.ceil(fraction * total)))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        for power in sorted(self.counts):
            seen += self.counts[power]
            if rank <= seen:
                midpoint = (2.0 ** power) * math.sqrt(2.0)
                return min(max(midpoint, self.minimum), self.maximum)
        return math.inf

    def quantiles(
        self, fractions: tuple[float, ...] = DEFAULT_QUANTILES
    ) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` for the fractions."""
        return {
            f"p{round(fraction * 100):d}": self.quantile(fraction)
            for fraction in fractions
        }

    def as_dict(self) -> dict:
        """Deterministic artifact form: ascending buckets, fmt_stat floats."""
        buckets: dict[str, int] = {}
        if self.zeros:
            buckets["0"] = self.zeros
        for power in sorted(self.counts):
            buckets[_bucket_label(power)] = self.counts[power]
        if self.infinite:
            buckets["inf"] = self.infinite
        quantiles = self.quantiles()
        return {
            "count": self.count,
            "dropped": self.dropped,
            "sum": fmt_stat(self.finite_sum),
            "mean": fmt_stat(self.mean),
            "min": fmt_stat(
                self.minimum if self.finite_count else math.nan
            ),
            "max": fmt_stat(
                self.maximum if self.finite_count else math.nan
            ),
            "p50": fmt_stat(quantiles["p50"]),
            "p90": fmt_stat(quantiles["p90"]),
            "p99": fmt_stat(quantiles["p99"]),
            "buckets": buckets,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs in ascending order,
        the Prometheus histogram exposition shape. Zeros fall under the
        smallest bound; the implicit ``+Inf`` bucket is the caller's
        (its count is :attr:`count`)."""
        pairs: list[tuple[float, int]] = []
        cumulative = self.zeros
        for power in sorted(self.counts):
            cumulative += self.counts[power]
            pairs.append((2.0 ** (power + 1), cumulative))
        if not pairs and self.zeros:
            pairs.append((1.0, self.zeros))
        return pairs
