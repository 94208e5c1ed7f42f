"""Billing: price books and usage metering for the mock EC2.

The meter records (instance, type, start, end) usage intervals; cost is
computed under either *proportional* (per-second, the model that matches
the paper's sub-cent figures) or *hourly* (classic 2012 EC2 round-up)
billing.  The billing ablation benchmark compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .. import calibration


class PriceBook:
    """Hourly USD prices per instance type."""

    def __init__(self, prices: dict[str, float], name: str = "custom") -> None:
        for t, p in prices.items():
            if p < 0:
                raise ValueError(f"negative price for {t}")
        self.name = name
        self._prices = dict(prices)

    def hourly(self, instance_type: str) -> float:
        try:
            return self._prices[instance_type]
        except KeyError:
            raise KeyError(f"no price for instance type {instance_type!r}") from None

    @classmethod
    def paper(cls) -> "PriceBook":
        """Prices calibrated to reproduce Fig. 10's cost series."""
        return cls(calibration.PAPER_PRICE_BOOK, name="paper-calibrated")

    @classmethod
    def ec2_2012(cls) -> "PriceBook":
        """Published 2012 us-east-1 on-demand prices."""
        return cls(calibration.EC2_2012_ONDEMAND_PRICE_BOOK, name="ec2-2012-ondemand")


@dataclass
class UsageInterval:
    """One contiguous running period of one instance."""

    instance_id: str
    instance_type: str
    start: float
    end: Optional[float] = None  # None while still running

    def duration(self, now: float) -> float:
        end = self.end if self.end is not None else now
        return max(0.0, end - self.start)


@dataclass
class BillingMeter:
    """Accumulates usage intervals and prices them on demand."""

    book: PriceBook = field(default_factory=PriceBook.paper)
    intervals: list[UsageInterval] = field(default_factory=list)
    _open: dict[str, UsageInterval] = field(default_factory=dict)

    def start(self, instance_id: str, instance_type: str, now: float) -> None:
        if instance_id in self._open:
            raise ValueError(f"{instance_id} is already metered as running")
        iv = UsageInterval(instance_id, instance_type, start=now)
        self._open[instance_id] = iv
        self.intervals.append(iv)

    def stop(self, instance_id: str, now: float) -> None:
        iv = self._open.pop(instance_id, None)
        if iv is None:
            raise ValueError(f"{instance_id} is not metered as running")
        if now < iv.start:
            raise ValueError("stop before start")
        iv.end = now

    def is_running(self, instance_id: str) -> bool:
        return instance_id in self._open

    # -- pricing ------------------------------------------------------------
    def cost(
        self,
        now: float,
        mode: str = "proportional",
        instance_ids: Optional[Iterable[str]] = None,
        window: Optional[tuple[float, float]] = None,
    ) -> float:
        """Total USD cost of recorded usage.

        ``mode`` is ``proportional`` (per-second) or ``hourly`` (each
        interval rounded up to whole instance-hours, as EC2 billed in
        2012 — so any started interval, even one launched and terminated
        at the same sim timestamp, bills a full hour).
        ``instance_ids`` restricts to a subset; ``window`` clips intervals
        to ``(t0, t1)`` — used to price only the span of one experiment.
        Intervals with no usage inside the window cost $0 in both modes.
        """
        if mode not in ("proportional", "hourly"):
            raise ValueError(f"unknown billing mode {mode!r}")
        ids = set(instance_ids) if instance_ids is not None else None
        total = 0.0
        for iv in self.intervals:
            if ids is not None and iv.instance_id not in ids:
                continue
            raw_start, raw_end = iv.start, iv.end if iv.end is not None else now
            start, end = raw_start, raw_end
            if window is not None:
                start, end = max(start, window[0]), min(end, window[1])
                if start > end:
                    continue  # interval entirely outside the window
            dur = max(0.0, end - start)
            if dur == 0.0 and raw_end > raw_start:
                # a positive-duration interval clipped down to the window
                # boundary instant: no usage inside the window
                continue
            rate = self.book.hourly(iv.instance_type)
            if mode == "proportional":
                total += rate * dur / 3600.0
            else:
                total += rate * max(1.0, math.ceil(dur / 3600.0))
        return total

    def instance_hours(self, now: float) -> float:
        """Raw instance-hours used so far (proportional)."""
        return sum(iv.duration(now) for iv in self.intervals) / 3600.0

    def cost_by_type(self, now: float, mode: str = "proportional") -> dict[str, float]:
        """Per-instance-type USD breakdown of :meth:`cost`.

        An elastic fleet mixes base workers with autoscaled additions of
        a different type; this is the view that says what the elasticity
        itself cost.  Keys are sorted so the dict is JSON-stable.
        """
        if mode not in ("proportional", "hourly"):
            raise ValueError(f"unknown billing mode {mode!r}")
        totals: dict[str, float] = {}
        for iv in self.intervals:
            dur = iv.duration(now)
            rate = self.book.hourly(iv.instance_type)
            if mode == "proportional":
                usd = rate * dur / 3600.0
            else:
                usd = rate * max(1.0, math.ceil(dur / 3600.0))
            totals[iv.instance_type] = totals.get(iv.instance_type, 0.0) + usd
        return {t: totals[t] for t in sorted(totals)}
