"""Registry exporters: JSON for tooling, Prometheus text for scrapers.

The Prometheus exporter follows the text exposition format: metric names
are sanitized (dots become underscores), label values are escaped
(backslash, double-quote, newline — the three characters the format
requires), every family gets ``# HELP`` and ``# TYPE`` exactly once,
histograms emit cumulative ``_bucket{le=...}`` lines ending in ``+Inf``
plus ``_sum``/``_count``, and callback gauges are evaluated at export
time.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def to_json(registry: MetricsRegistry) -> str:
    """The whole registry as a JSON document."""
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)


def prometheus_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: ``\\`` then ``"`` then newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """HELP lines escape backslash and newline (quotes stay literal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Dict[str, str],
                   extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{prometheus_name(k)}="{escape_label_value(v)}"'
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition of every instrument."""
    lines: List[str] = []
    declared: set = set()

    def declare(name: str, kind: str, source: str) -> None:
        # HELP and TYPE exactly once per family, even when many labeled
        # variants (or dotted names that sanitize identically) share it.
        if name in declared:
            return
        declared.add(name)
        lines.append(
            f"# HELP {name} "
            f"{escape_help_text(f'repro instrument {source}')}"
        )
        lines.append(f"# TYPE {name} {kind}")

    for instrument in registry.instruments():
        name = prometheus_name(instrument.name)
        labels = instrument.labels
        if isinstance(instrument, Counter):
            declare(name, "counter", instrument.name)
            lines.append(f"{name}{_render_labels(labels)} {instrument.value:g}")
        elif isinstance(instrument, Gauge):
            declare(name, "gauge", instrument.name)
            lines.append(f"{name}{_render_labels(labels)} {instrument.value:g}")
        elif isinstance(instrument, Histogram):
            declare(name, "histogram", instrument.name)
            for le, cumulative in instrument.cumulative_buckets():
                lines.append(
                    f"{name}_bucket"
                    f"{_render_labels(labels, {'le': f'{le:g}'})}"
                    f" {cumulative}"
                )
            lines.append(
                f"{name}_bucket{_render_labels(labels, {'le': '+Inf'})}"
                f" {instrument.count}"
            )
            lines.append(
                f"{name}_sum{_render_labels(labels)} {instrument.total:g}"
            )
            lines.append(
                f"{name}_count{_render_labels(labels)} {instrument.count}"
            )
    return "\n".join(lines) + "\n"
