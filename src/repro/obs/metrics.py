"""Harness telemetry primitives: counters and bounded histograms.

A :class:`BoundedHistogram` keeps one integer bucket per value up to a
fixed bound (structure occupancies are naturally bounded by capacity), an
overflow bucket for anything beyond, and enough moments for mean/max.
Weights let a skipped span contribute all its cycles in one call.
:class:`MetricsRegistry` is the named bag of both that the observer fills
and :class:`~repro.sim.results.SimResult` carries as plain dictionaries.

:meth:`MetricsRegistry.render_prometheus` serializes a registry into the
Prometheus text exposition format (version 0.0.4), which is what the
service supervisor publishes as jobs settle; :func:`prometheus_errors` is the
dependency-free validator CI asserts against (same style as
:func:`~repro.obs.tracing.chrome_schema_errors`), and
:func:`parse_prometheus` round-trips a rendered document back into
samples for tests.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional


class BoundedHistogram:
    """Integer-valued histogram with ``bound + 1`` exact buckets."""

    __slots__ = (
        "bound", "counts", "overflow", "total_weight", "weighted_sum",
        "max_value",
    )

    def __init__(self, bound: int) -> None:
        self.bound = max(0, int(bound))
        self.counts: List[int] = [0] * (self.bound + 1)
        self.overflow = 0
        self.total_weight = 0
        self.weighted_sum = 0
        self.max_value = 0

    def add(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            return
        self.total_weight += weight
        self.weighted_sum += value * weight
        if value > self.max_value:
            self.max_value = value
        if 0 <= value <= self.bound:
            self.counts[value] += weight
        else:
            self.overflow += weight

    @property
    def mean(self) -> float:
        if self.total_weight == 0:
            return 0.0
        return self.weighted_sum / self.total_weight

    def percentile(self, fraction: float) -> int:
        """Smallest bucket value covering ``fraction`` of the weight.

        Overflow weight counts as ``bound`` (the histogram cannot resolve
        beyond its bound; ``max_value`` records the true extreme).
        """
        if self.total_weight == 0:
            return 0
        threshold = fraction * self.total_weight
        running = 0
        for value, count in enumerate(self.counts):
            running += count
            if running >= threshold:
                return value
        return self.bound

    def summary(self) -> Dict[str, float]:
        return {
            "weight": float(self.total_weight),
            "mean": self.mean,
            "p50": float(self.percentile(0.50)),
            "p95": float(self.percentile(0.95)),
            "max": float(self.max_value),
            "overflow": float(self.overflow),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}  # levels: they may fall
        self.histograms: Dict[str, BoundedHistogram] = {}

    def counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str, bound: int) -> BoundedHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = BoundedHistogram(bound)
        return hist

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot (picklable, cache-friendly; no gauges)."""
        out: Dict[str, Dict[str, float]] = {
            name: hist.summary() for name, hist in self.histograms.items()
        }
        if self.counters:
            out["counters"] = {
                name: float(value) for name, value in self.counters.items()
            }
        return out

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Serialize the registry as Prometheus text exposition format.

        Counters and gauges become ``<prefix>_<name>`` series of their
        type, in one name-sorted run; each
        histogram becomes one gauge series per summary statistic,
        labelled ``{stat="mean"|"p50"|"p95"|"max"|"weight"|"overflow"}``
        — the digest shape the rest of the repo already exposes, kept
        instead of native Prometheus buckets so the exported numbers
        match ``status`` exactly.  Dots and other non-metric characters
        in names collapse to ``_``.
        """
        lines: List[str] = []
        values = {**self.counters, **self.gauges}
        for name in sorted(values):
            metric = metric_name(f"{prefix}.{name}")
            kind = "gauge" if name in self.gauges else "counter"
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {format_value(values[name])}")
        for name in sorted(self.histograms):
            metric = metric_name(f"{prefix}.{name}")
            lines.append(f"# TYPE {metric} gauge")
            for stat, value in sorted(self.histograms[name].summary().items()):
                lines.append(
                    f'{metric}{{stat="{stat}"}} {format_value(value)}'
                )
        return "\n".join(lines) + "\n"


# ------------------------------------------------------- text exposition
#: metric names: letters, digits, underscores, colons; no leading digit
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: one sample line: name, optional {label="value",...} block, value
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)
_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def metric_name(name: str) -> str:
    """A valid Prometheus metric name for an internal dotted one."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _METRIC_NAME.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def format_value(value: float) -> str:
    """Render one sample value (integers stay integral)."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _parse_number(text: str) -> Optional[float]:
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        return None


def prometheus_errors(text: str, max_errors: int = 20) -> List[str]:
    """Validate a text-exposition document; empty list means loadable.

    Dependency-free, in the style of
    :func:`~repro.obs.tracing.chrome_schema_errors`: every non-comment
    line must be a well-formed sample (valid metric name, well-formed
    label pairs, numeric value), ``# TYPE`` comments must name a known
    type and precede their metric's samples, and no ``# TYPE`` may be
    repeated for one metric.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    seen_samples: Dict[str, bool] = {}

    def note(message: str) -> bool:
        errors.append(message)
        return len(errors) >= max_errors

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        where = f"line {number}"
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    if note(f"{where}: TYPE needs a metric name and a type"):
                        break
                    continue
                name, kind = parts[2], parts[3].strip()
                if not _METRIC_NAME.match(name):
                    if note(f"{where}: invalid metric name {name!r}"):
                        break
                    continue
                if kind not in _TYPES:
                    if note(f"{where}: unknown metric type {kind!r}"):
                        break
                    continue
                if name in typed:
                    if note(f"{where}: duplicate TYPE for {name!r}"):
                        break
                    continue
                if seen_samples.get(name):
                    if note(
                        f"{where}: TYPE for {name!r} after its samples"
                    ):
                        break
                    continue
                typed[name] = kind
            # Other comments (# HELP, free text) are always legal.
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            if note(f"{where}: not a valid sample line: {line!r}"):
                break
            continue
        name = match.group("name")
        seen_samples[name] = True
        labels = match.group("labels")
        if labels is not None and labels.strip():
            for pair in _split_labels(labels):
                label = _LABEL_PAIR.match(pair.strip())
                if label is None:
                    if note(f"{where}: malformed label pair {pair!r}"):
                        break
                    continue
                if not _LABEL_NAME.match(label.group("name")):
                    if note(
                        f"{where}: invalid label name "
                        f"{label.group('name')!r}"
                    ):
                        break
            if len(errors) >= max_errors:
                break
        if _parse_number(match.group("value")) is None:
            if note(
                f"{where}: sample value {match.group('value')!r} "
                f"is not a number"
            ):
                break
    return errors


def _split_labels(labels: str) -> List[str]:
    """Split a label block on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in labels:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\" and in_quotes:
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current or not parts:
        parts.append("".join(current))
    return [part for part in parts if part.strip()]


def parse_prometheus(text: str) -> Dict[str, float]:
    """Samples from a valid document: ``name{labels}`` (or bare name) → value.

    Raises ``ValueError`` on the first malformed line — run
    :func:`prometheus_errors` first for a full diagnostic list.
    """
    problems = prometheus_errors(text, max_errors=1)
    if problems:
        raise ValueError(f"not a valid exposition document: {problems[0]}")
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.rstrip()
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        name = match.group("name")
        labels = match.group("labels")
        key = name if not labels else f"{name}{{{labels}}}"
        samples[key] = _parse_number(match.group("value"))
    return samples
