#!/usr/bin/env python3
"""Validates a Prometheus text-exposition payload (CI loadgen-smoke gate).

Usage: check_prom.py FILE [--require NAME]... [--forbid NAME]...

Checks, line by line and across the document:
  * every non-comment line is `name{labels} value` with a legal metric name,
    legal label names, properly quote-escaped label values, and a finite or
    +Inf/-Inf/NaN-free value (NaN/Inf are rejected: the exporter promises to
    filter them);
  * no duplicate series (same name + label set twice);
  * every histogram's `_bucket` series has non-decreasing counts over
    non-decreasing `le` edges, is closed by le="+Inf", and the +Inf count
    equals the histogram's `_count`;
  * each --require NAME appears as a series prefix (used by CI to assert the
    scrape actually contains the serving-path metrics);
  * no series starts with any --forbid NAME (used by CI to assert that the
    proxy's scrape carries no cache-server series).

Exits 0 when valid; prints every violation and exits 1 otherwise.
"""

import math
import re
import sys

METRIC_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r' (?P<value>\S+)$')
LABEL_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>.*)"$')


def split_labels(raw):
    """Splits `a="x",b="y"` respecting escaped quotes; returns pairs or None."""
    pairs = []
    i = 0
    while i < len(raw):
        eq = raw.find('=', i)
        if eq < 0 or eq + 1 >= len(raw) or raw[eq + 1] != '"':
            return None
        j = eq + 2
        while j < len(raw):
            if raw[j] == '\\':
                j += 2
                continue
            if raw[j] == '"':
                break
            j += 1
        if j >= len(raw):
            return None
        pairs.append((raw[i:eq], raw[eq + 1:j + 1]))
        i = j + 1
        if i < len(raw):
            if raw[i] != ',':
                return None
            i += 1
    return pairs


def main():
    args = sys.argv[1:]
    prefixes = {'--require': [], '--forbid': []}
    for flag, names in prefixes.items():
        while flag in args[:-1]:
            idx = args.index(flag)
            names.append(args[idx + 1])
            del args[idx:idx + 2]
    required = prefixes['--require']
    forbidden = prefixes['--forbid']
    if len(args) != 1:
        print(__doc__)
        return 2
    path = args[0]

    errors = []
    seen = set()
    buckets = {}   # base name + labels-sans-le -> [(le, count)]
    counts = {}    # base name + labels -> count value

    with open(path, encoding='utf-8') as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip('\n')
            if not line or line.startswith('#'):
                continue
            m = METRIC_RE.match(line)
            if not m:
                errors.append(f'line {lineno}: unparseable: {line!r}')
                continue
            name = m.group('name')
            raw_labels = m.group('labels')
            labels = []
            if raw_labels is not None:
                labels = split_labels(raw_labels)
                if labels is None:
                    errors.append(f'line {lineno}: bad label block: {line!r}')
                    continue
                for key, val in labels:
                    if not LABEL_RE.match(f'{key}={val}'):
                        errors.append(
                            f'line {lineno}: bad label {key}={val!r}')

            value_str = m.group('value')
            le = dict((k, v) for k, v in labels).get('le')
            if value_str not in ('+Inf', '-Inf'):
                try:
                    value = float(value_str)
                except ValueError:
                    errors.append(f'line {lineno}: bad value {value_str!r}')
                    continue
                if math.isnan(value) or math.isinf(value):
                    errors.append(
                        f'line {lineno}: non-finite value in {line!r}')
                    continue
            else:
                errors.append(f'line {lineno}: non-finite value {value_str}')
                continue

            series_key = (name, tuple(sorted(labels)))
            if series_key in seen:
                errors.append(f'line {lineno}: duplicate series {series_key}')
            seen.add(series_key)

            if name.endswith('_bucket') and le is not None:
                base = name[:-len('_bucket')]
                other = tuple(sorted(
                    (k, v) for k, v in labels if k != 'le'))
                buckets.setdefault((base, other), []).append(
                    (le.strip('"'), value, lineno))
            elif name.endswith('_count'):
                base = name[:-len('_count')]
                counts[(base, tuple(sorted(labels)))] = value

    for (base, other), series in buckets.items():
        prev_le = -math.inf
        prev_count = -1
        inf_count = None
        for i, (le_str, count, lineno) in enumerate(series):
            if le_str == '+Inf':
                inf_count = count
                if i != len(series) - 1:
                    errors.append(
                        f'line {lineno}: {base}: +Inf bucket not last')
                continue
            le = float(le_str.strip('"'))
            if le <= prev_le:
                errors.append(
                    f'line {lineno}: {base}: le edges not increasing')
            prev_le = le
            if count < prev_count:
                errors.append(
                    f'line {lineno}: {base}: bucket counts decreased')
            prev_count = count
        if inf_count is None:
            errors.append(f'{base}{dict(other)}: missing +Inf bucket')
        else:
            if prev_count > inf_count:
                errors.append(f'{base}: +Inf bucket below last bucket')
            expected = counts.get((base, other))
            if expected is not None and expected != inf_count:
                errors.append(
                    f'{base}: +Inf bucket {inf_count} != _count {expected}')

    for name in required:
        if not any(k[0].startswith(name) for k in seen):
            errors.append(f'required metric missing: {name}')
    for name in forbidden:
        hits = sorted({k[0] for k in seen if k[0].startswith(name)})
        if hits:
            errors.append(f'forbidden metric present: {name} ({hits[0]})')

    if errors:
        for err in errors:
            print(f'check_prom: {err}', file=sys.stderr)
        print(f'check_prom: FAIL ({len(errors)} violations in {path})',
              file=sys.stderr)
        return 1
    print(f'check_prom: OK ({len(seen)} series in {path})')
    return 0


if __name__ == '__main__':
    sys.exit(main())
