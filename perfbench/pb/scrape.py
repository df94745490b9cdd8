"""The live scrape surfaces: memcached `stats` and the Prometheus endpoint.

Histograms are exported as cumulative `_bucket{le=...}` series over the
LogHistogram geometry, with empty buckets left out. A window's quantile is
read from the difference of two scrapes, so it covers that window only.
"""

import re
import socket

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


class StatsClient:
    """A persistent text-protocol connection used only for `stats`."""

    def __init__(self, port, timeout=5.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout)
        self.buf = b""

    def stats(self):
        self.sock.sendall(b"stats\r\n")
        while b"END\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("stats connection closed")
            self.buf += chunk
        block, _, self.buf = self.buf.partition(b"END\r\n")
        return parse_stats(block.decode(errors="replace"))

    def close(self):
        self.sock.close()


def parse_stats(text):
    """`STAT name value` lines -> {name: int|float|str}."""
    out = {}
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[0] == "STAT":
            out[parts[1]] = _number(parts[2])
    return out


def _number(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def http_metrics(port, timeout=5.0):
    """One `GET /metrics` against a --metrics-port endpoint."""
    with socket.create_connection(("127.0.0.1", port), timeout) as s:
        s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    _, _, body = data.partition(b"\r\n\r\n")
    return body.decode(errors="replace")


def parse_prometheus(text):
    """Exposition text -> {(name, ((label, value), ...)): float}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line.strip())
        if not m:
            continue
        labels = tuple(sorted(_LABEL.findall(m.group(2) or "")))
        try:
            out[(m.group(1), labels)] = float(m.group(3))
        except ValueError:
            continue
    return out


def counter(samples, name):
    """Sum of a series over all of its label sets (0 when absent)."""
    return sum(v for (n, _), v in samples.items() if n == name)


def buckets(samples, name):
    """Cumulative buckets of histogram `name`, merged over its label sets.

    Returns {le: cumulative count}; le is a float (inf for +Inf). Series
    with different labels are summed bucket by bucket, which is exact
    because they share one bucket geometry.
    """
    per_series = {}
    for (n, labels), v in samples.items():
        if n != name + "_bucket":
            continue
        le = dict(labels).get("le")
        rest = tuple(kv for kv in labels if kv[0] != "le")
        per_series.setdefault(rest, {})[float(le)] = v
    return sum_buckets(per_series.values())


def _at_bounds(cum, bounds):
    """Cumulative counts of a sparse cumulative series at sorted `bounds`."""
    own = sorted(cum.items())
    out, i, last = [], 0, 0.0
    for le in bounds:
        while i < len(own) and own[i][0] <= le:
            last = max(last, own[i][1])
            i += 1
        out.append(last)
    return out


def delta_buckets(before, after):
    """Cumulative buckets of what was recorded between two snapshots."""
    bounds = sorted(set(before) | set(after))
    return {le: a - b for le, a, b in zip(bounds, _at_bounds(after, bounds),
                                          _at_bounds(before, bounds))}


def sum_buckets(parts):
    """Cumulative buckets of several histograms of one geometry, summed."""
    parts = list(parts)
    bounds = sorted({le for cum in parts for le in cum})
    total = [0.0] * len(bounds)
    for cum in parts:
        total = [t + c for t, c in zip(total, _at_bounds(cum, bounds))]
    return dict(zip(bounds, total))


def quantile(cum, q):
    """Upper bound of the bucket holding the q-th sample (None when empty).

    +Inf maps to the largest finite bound.
    """
    bounds = sorted(cum)
    total = cum[bounds[-1]] if bounds else 0.0
    if total <= 0:
        return None
    finite = [le for le in bounds if le != float("inf")]
    for le in bounds:
        if cum[le] >= q * total:
            return le if le != float("inf") else (finite[-1] if finite else None)
    return None
