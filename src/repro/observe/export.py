"""OpenMetrics/Prometheus text exposition of the observability registry.

:func:`render_openmetrics` turns one registry snapshot into a valid
OpenMetrics text document a fleet scraper (Prometheus, the OpenMetrics
reference parser, ``promtool``) can consume directly; ``python -m
repro.observe serve --port N`` serves it over HTTP and ``python -m
repro.observe metrics`` dumps it to stdout.

Every exported family is one row of :data:`METRICS`; the serving counters
a :class:`repro.serve.metrics.ServingMetrics` keeps are derived from the
same rows (:data:`SERVING_COUNTERS`). Naming and label conventions (pinned
by tests + the CI schema check):

* every metric is prefixed ``repro_`` and namespaced by subsystem:
  ``repro_serving_*`` (per-server, labelled ``server="..."``),
  ``repro_kernel_pool_*``, ``repro_backend_*``, ``repro_kernel_profile``,
  ``repro_compile_traces`` / ``repro_tune_runs`` / ``repro_request_spans``
  / ``repro_flight_events`` (ring lifetime counters);
* counters carry the mandatory ``_total`` sample suffix, units are spelled
  in the name (``_seconds``, ``_bytes``, ``_rows``);
* histograms follow the bucket convention exactly: cumulative
  ``_bucket{le="..."}`` samples ending in ``le="+Inf"``, plus ``_sum`` and
  ``_count``;
* per-precision footprints are labelled ``precision="int8"`` etc., mirror
  of the ``bytes_by_precision`` serving gauge.

Providers that failed (``"<error: ...>"`` strings in the snapshot) are
skipped, never rendered — a broken gauge cannot corrupt the exposition.

:func:`parse_openmetrics` is a strict structural validator for the format
(used by the tests and the CI ``observe-smoke`` job, where no third-party
parser is available): it checks name/label syntax, TYPE-before-sample
ordering, family contiguity, counter ``_total`` suffixes, histogram
bucket cumulativity and the mandatory ``# EOF`` terminator.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.observe import events as _events
from repro.observe.registry import SCHEMA_VERSION, registry

#: the content type OpenMetrics scrapers negotiate
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: default port of ``python -m repro.observe serve``
DEFAULT_METRICS_PORT = 9464

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ----------------------------------------------------------------------
# The metric table
# ----------------------------------------------------------------------
#: every serving family starts here: one label per registered server
_SERVER = ("serving", "*server")
_WORKER = (*_SERVER, "runtime", "workers", "*model", "workers", "*worker")
_PRECISION = (*_SERVER, "runtime", "bytes_by_precision", "*precision")

#: Every exported family, in exposition order: ``(name, type, help, path
#: into the registry snapshot)``. A path step is a key; ``"*label"`` (every
#: key of the dict reached, sorted, becomes that label); ``(label, {key:
#: label value})`` (a fixed key set); or, last, a callable deriving the
#: value from the dict reached. Adding a metric is adding a row.
METRICS: tuple[tuple, ...] = (
    ("repro_observe_schema_version", "gauge",
     "Registry snapshot schema version.", ("schema_version",)),
    ("repro_kernel_pool_workers", "gauge",
     "Workers in the shared kernel pool.", ("kernel_pool", "workers")),
    ("repro_kernel_pool_tasks", "counter",
     "Lifetime kernel-pool tasks by state.",
     ("kernel_pool", ("state", {
         f"tasks_{state}": state
         for state in ("submitted", "completed", "failed", "cancelled")
     }))),
    ("repro_kernel_pool_task_seconds", "counter",
     "Total seconds spent inside timed kernel-pool tasks.",
     ("kernel_pool", "tasks_time_total_s")),
    ("repro_kernel_pool_task_max_seconds", "gauge",
     "Longest timed kernel-pool task in seconds.",
     ("kernel_pool", "tasks_time_max_s")),
    ("repro_compile_traces", "counter",
     "Compilation traces recorded.", ("traces", "recorded")),
    ("repro_tune_runs", "counter",
     "Autotune runs recorded.", ("tunes", "recorded")),
    ("repro_request_spans", "counter",
     "Request span trees recorded.", ("spans", "recorded")),
    ("repro_flight_events", "counter",
     "Flight-recorder events recorded.", ("events", "recorded")),
    ("repro_flight_events_kept", "gauge",
     "Flight-recorder events currently kept, by kind.",
     ("events", "by_kind", "*kind")),
    ("repro_backend_events", "counter",
     "Backend registry lifetime counters (compiles, artifact ops).",
     ("backends", "*backend", "*event")),
    ("repro_kernel_profile", "counter",
     "Aggregated kernel profiling counters across live recorders.",
     ("profiles", "totals", "*counter")),
    *(
        (f"repro_serving_{key}", "counter", help_text, (*_SERVER, key))
        for key, help_text in (
            ("requests", "Predict requests observed."),
            ("rows", "Total rows predicted."),
            ("errors", "Predict requests that raised."),
            ("admission_rejects",
             "Requests turned away by SLO admission control."),
            ("compiles", "Full pipeline compilations performed."),
            ("cache_hits", "Predictor-cache hits."),
            ("cache_misses", "Predictor-cache misses."),
            ("cache_evictions", "Predictors dropped by the LRU bound."),
            ("fallbacks", "Requests/compiles degraded to a fallback executor."),
            ("batches", "Micro-batches executed."),
        )
    ),
    ("repro_serving_models", "gauge",
     "Models currently registered.", (*_SERVER, "models_registered")),
    ("repro_serving_predictors_resident", "gauge",
     "Compiled predictors resident in the cache.",
     (*_SERVER, "predictors_resident")),
    ("repro_serving_latency_quantile_seconds", "gauge",
     "Nearest-rank latency percentiles over the sliding window.",
     (*_SERVER, "latency", ("quantile", {
         "p50": "0.5", "p90": "0.9", "p99": "0.99", "p999": "0.999"
     }))),
    *(
        (f"repro_serving_{key}", "histogram", help_text,
         (*_SERVER, "histograms", key))
        for key, help_text in (
            ("latency_seconds", "Request latency in seconds."),
            ("queue_wait_seconds", "Micro-batch queue wait in seconds."),
            ("kernel_seconds", "Kernel execution time per batch in seconds."),
            ("batch_rows", "Rows per executed micro-batch."),
        )
    ),
    ("repro_serving_tunes", "counter",
     "Background autotune lifecycle events.",
     (*_SERVER, "tuning", ("outcome", {
         outcome: outcome
         for outcome in ("started", "completed", "failed", "cache_hits")
     }))),
    ("repro_serving_hot_swaps", "counter",
     "Sessions atomically switched to a tuned predictor.",
     (*_SERVER, "tuning", "hot_swaps")),
    *(
        (f"repro_serving_precision_{key}", "gauge", help_text,
         (*_PRECISION, key))
        for key, help_text in (
            ("predictors", "Resident predictors by schedule precision."),
            ("model_bytes", "Total model buffer bytes by schedule precision."),
            ("param_bytes",
             "Threshold/leaf parameter bytes by schedule precision."),
            ("scratch_bytes", "Scratch arena bytes by schedule precision."),
        )
    ),
    ("repro_serving_shard_worker_alive", "gauge",
     "Liveness of each shard worker process (1 = alive).",
     (*_WORKER, lambda info: 1.0 if info.get("alive") else 0.0)),
    ("repro_serving_shard_worker_dispatched", "counter",
     "Requests scattered to each shard worker.", (*_WORKER, "dispatched")),
    ("repro_serving_shard_worker_respawns", "counter",
     "Times each shard worker was respawned after dying.",
     (*_WORKER, "respawns")),
    ("repro_gauge", "gauge",
     "Ad-hoc registered gauges (numeric only).", ("gauges", "*name")),
)


def _serving_counter_names() -> tuple[str, ...]:
    names = []
    for _name, mtype, _help, path in METRICS:
        if mtype == "counter" and path[:2] == _SERVER and "runtime" not in path:
            *parents, leaf = path[2:]
            keys = leaf[1] if isinstance(leaf, tuple) else (leaf,)
            names.extend(".".join((*parents, key)) for key in keys)
    return tuple(names)


#: the counters one server owns, as dotted paths into its metrics
#: snapshot: the serving counter rows of :data:`METRICS` outside
#: ``runtime`` (whose gauges are read from live state at snapshot time)
SERVING_COUNTERS = _serving_counter_names()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_openmetrics(snapshot: dict | None = None) -> str:
    """The registry snapshot as one OpenMetrics text document."""
    snap = snapshot if snapshot is not None else registry.snapshot()
    snap = {"schema_version": SCHEMA_VERSION, **snap}
    lines: list[str] = []
    for name, mtype, help_text, path in METRICS:
        samples = list(_family_samples(name, mtype, path, snap))
        if samples:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _walk(node, path: tuple, labels: dict):
    """Yield ``(labels, leaf)`` for every leaf ``path`` reaches in ``node``."""
    if not path:
        yield labels, node
        return
    if not isinstance(node, dict):  # failed providers render nothing
        return
    step, rest = path[0], path[1:]
    if callable(step):
        yield labels, step(node)
    elif isinstance(step, tuple):
        label, values = step
        for key, value in values.items():
            if key in node:
                yield from _walk(node[key], rest, {**labels, label: value})
    elif step.startswith("*"):
        for key in sorted(node):
            yield from _walk(node[key], rest, {**labels, step[1:]: key})
    elif step in node:
        yield from _walk(node[step], rest, labels)


def _family_samples(name: str, mtype: str, path: tuple, snap: dict):
    for labels, leaf in _walk(snap, path, {}):
        if mtype == "histogram":
            if isinstance(leaf, dict):
                yield from _histogram_samples(name, labels, leaf)
        elif _is_number(leaf):
            suffix = "_total" if mtype == "counter" else ""
            yield _sample(name + suffix, labels, leaf)


def _histogram_samples(name: str, labels: dict, hist: dict):
    """A histogram's samples; a malformed part renders as if absent, the way
    :func:`_walk` skips what it cannot read."""
    cumulative = 0.0
    buckets = hist.get("buckets")
    for bound, count in buckets.items() if isinstance(buckets, dict) else ():
        if _is_number(count):
            cumulative = count
            yield _sample(
                f"{name}_bucket", {**labels, "le": _le_text(bound)}, count
            )
    count, total = hist.get("count"), hist.get("sum")
    yield _sample(f"{name}_count", labels, count if _is_number(count) else cumulative)
    yield _sample(f"{name}_sum", labels, total if _is_number(total) else 0.0)


def _sample(name: str, labels: dict, value) -> str:
    if labels:
        name += "{" + ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
        ) + "}"
    return f"{name} {_format_value(float(value))}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _le_text(bound) -> str:
    """Canonical ``le`` label text for a bucket bound."""
    if bound == float("inf") or bound == "+Inf":
        return "+Inf"
    return _format_value(float(bound))


# ----------------------------------------------------------------------
# Parsing / validation
# ----------------------------------------------------------------------
_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "summary": ("", "_count", "_sum", "_created"),
    "info": ("_info",),
    "unknown": ("",),
}


def parse_openmetrics(text: str) -> dict:
    """Strictly parse an OpenMetrics text document.

    Returns ``{family name: {"type", "help", "samples": [(suffix, labels,
    value)]}}``; raises :class:`ValueError` with a line-numbered message on
    the first structural violation. Covers the rules our exporter (and any
    honest scraper) depends on: syntax, TYPE-before-sample ordering, family
    contiguity, counter ``_total`` suffixes, cumulative histogram buckets
    with a final ``le="+Inf"`` and the ``# EOF`` terminator.
    """
    families: dict[str, dict] = {}
    finished: set[str] = set()
    current: str | None = None
    saw_eof = False
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            current = _parse_comment(line, lineno, families, finished, current)
            continue
        if not line.strip():
            raise ValueError(f"line {lineno}: blank lines are not allowed")
        current = _parse_sample(line, lineno, families, finished, current)
    if not saw_eof:
        raise ValueError("document does not end with # EOF")
    for name, family in families.items():
        if family["type"] == "histogram":
            _check_histogram(name, family)
        if family["type"] == "counter":
            for suffix, _labels, value in family["samples"]:
                if value < 0:
                    raise ValueError(f"counter {name} has negative sample")
    return families


def _parse_comment(line, lineno, families, finished, current):
    parts = line.split(" ", 3)
    if len(parts) < 3 or parts[0] != "#" or parts[1] not in ("HELP", "TYPE"):
        raise ValueError(f"line {lineno}: malformed comment {line!r}")
    keyword, name = parts[1], parts[2]
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"line {lineno}: invalid metric name {name!r}")
    if name in finished and name != current:
        raise ValueError(f"line {lineno}: family {name} is interleaved")
    if name not in families:
        if current is not None:
            finished.add(current)
        families[name] = {"type": "unknown", "help": "", "samples": []}
    if keyword == "TYPE":
        mtype = parts[3] if len(parts) > 3 else ""
        if families[name]["samples"]:
            raise ValueError(
                f"line {lineno}: TYPE for {name} after its samples"
            )
        if mtype not in _SUFFIXES:
            raise ValueError(f"line {lineno}: unknown type {mtype!r}")
        families[name]["type"] = mtype
    else:
        families[name]["help"] = parts[3] if len(parts) > 3 else ""
    return name


def _parse_sample(line, lineno, families, finished, current):
    name_end = len(line)
    for i, ch in enumerate(line):
        if ch in "{ ":
            name_end = i
            break
    sample_name = line[:name_end]
    if not _METRIC_NAME_RE.match(sample_name):
        raise ValueError(f"line {lineno}: invalid sample name {sample_name!r}")
    rest = line[name_end:]
    labels: dict[str, str] = {}
    if rest.startswith("{"):
        labels, rest = _parse_labels(rest, lineno)
    if not rest.startswith(" "):
        raise ValueError(f"line {lineno}: missing value separator")
    value_text = rest.strip().split(" ")[0]
    try:
        value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
    except ValueError:
        raise ValueError(
            f"line {lineno}: unparseable value {value_text!r}"
        ) from None

    family_name, suffix = _resolve_family(sample_name, families)
    if family_name is None:
        raise ValueError(
            f"line {lineno}: sample {sample_name!r} has no TYPE declaration"
        )
    if family_name in finished and family_name != current:
        raise ValueError(f"line {lineno}: family {family_name} is interleaved")
    mtype = families[family_name]["type"]
    if suffix not in _SUFFIXES.get(mtype, ("",)):
        raise ValueError(
            f"line {lineno}: suffix {suffix!r} invalid for {mtype} "
            f"family {family_name}"
        )
    families[family_name]["samples"].append((suffix, labels, value))
    if current is not None and current != family_name:
        finished.add(current)
    return family_name


def _resolve_family(sample_name: str, families: dict):
    """Longest declared family name this sample (with suffix) belongs to."""
    candidates = []
    for family_name, family in families.items():
        if not sample_name.startswith(family_name):
            continue
        suffix = sample_name[len(family_name):]
        if suffix in _SUFFIXES.get(family["type"], ("",)):
            candidates.append((len(family_name), family_name, suffix))
    if not candidates:
        return None, None
    _len, family_name, suffix = max(candidates)
    return family_name, suffix


def _parse_labels(text: str, lineno: int) -> tuple[dict, str]:
    """Parse ``{name="value",...}``; returns (labels, remaining text)."""
    labels: dict[str, str] = {}
    i = 1  # past '{'
    while True:
        if i >= len(text):
            raise ValueError(f"line {lineno}: unterminated label set")
        if text[i] == "}":
            return labels, text[i + 1:]
        j = i
        while j < len(text) and text[j] not in "=}":
            j += 1
        label_name = text[i:j]
        if not _LABEL_NAME_RE.match(label_name):
            raise ValueError(f"line {lineno}: invalid label name {label_name!r}")
        if j >= len(text) or text[j] != "=" or text[j + 1: j + 2] != '"':
            raise ValueError(f"line {lineno}: malformed label value")
        j += 2
        value_chars: list[str] = []
        while j < len(text) and text[j] != '"':
            if text[j] == "\\":
                j += 1
                if j >= len(text):
                    raise ValueError(f"line {lineno}: dangling escape")
                value_chars.append(
                    {"n": "\n", '"': '"', "\\": "\\"}.get(text[j], text[j])
                )
            else:
                value_chars.append(text[j])
            j += 1
        if j >= len(text):
            raise ValueError(f"line {lineno}: unterminated label value")
        if label_name in labels:
            raise ValueError(f"line {lineno}: duplicate label {label_name!r}")
        labels[label_name] = "".join(value_chars)
        j += 1  # past closing quote
        if j < len(text) and text[j] == ",":
            j += 1
        i = j


def _check_histogram(name: str, family: dict) -> None:
    by_series: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for suffix, labels, value in family["samples"]:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        if suffix == "_bucket":
            le = labels.get("le")
            if le is None:
                raise ValueError(f"histogram {name} bucket without le label")
            by_series.setdefault(key, []).append(
                (float(le.replace("+Inf", "inf")), value)
            )
        elif suffix == "_count":
            counts[key] = value
    for key, buckets in by_series.items():
        bounds = [b for b, _ in buckets]
        values = [v for _, v in buckets]
        if bounds != sorted(bounds):
            raise ValueError(f"histogram {name} buckets out of le order")
        if bounds[-1] != float("inf"):
            raise ValueError(f"histogram {name} is missing the +Inf bucket")
        if values != sorted(values):
            raise ValueError(f"histogram {name} buckets are not cumulative")
        if key in counts and values[-1] != counts[key]:
            raise ValueError(
                f"histogram {name} +Inf bucket disagrees with _count"
            )


# ----------------------------------------------------------------------
# HTTP endpoint
# ----------------------------------------------------------------------
class _MetricsHandler(BaseHTTPRequestHandler):
    """``/metrics`` (OpenMetrics), ``/snapshot`` (JSON), ``/events`` (NDJSON)."""

    server_version = "repro-observe"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/", "/metrics"):
                body = render_openmetrics().encode("utf-8")
                ctype = OPENMETRICS_CONTENT_TYPE
            elif path == "/snapshot":
                body = (registry.export_json(indent=2) + "\n").encode("utf-8")
                ctype = "application/json; charset=utf-8"
            elif path == "/events":
                lines = [
                    json.dumps(event) for event in _events.recorder.tail(n=10**9)
                ]
                body = ("\n".join(lines) + "\n").encode("utf-8")
                ctype = "application/x-ndjson; charset=utf-8"
            else:
                self.send_error(404, "unknown path (try /metrics)")
                return
        except Exception as exc:  # noqa: BLE001 - a scrape must not kill the server
            self.send_error(500, f"snapshot failed: {exc}")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:  # noqa: D102 - silence per-request logs
        pass


def start_metrics_server(
    port: int = DEFAULT_METRICS_PORT, addr: str = "127.0.0.1"
) -> ThreadingHTTPServer:
    """Serve the registry over HTTP on a daemon thread; returns the server.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address[1]`` (tests do). Call ``server.shutdown()``
    to stop.
    """
    server = ThreadingHTTPServer((addr, port), _MetricsHandler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics-http", daemon=True
    )
    thread.start()
    return server
