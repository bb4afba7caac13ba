#!/usr/bin/env python3
# Copyright (c) saedb authors. Licensed under the MIT license.
"""Compares two BENCH_*.json files and flags metric regressions.

Usage: check_perf_regression.py BASELINE CURRENT [--threshold 0.20]

Understands every bench JSON shape the tree emits:

  * BENCH_throughput.json — the `read_heavy_95_5` section, per model
    (SAE/TOM), cached and uncached queries/sec;
  * figure benches (BENCH_fig*.json) — the generic `rows` array written by
    bench::BenchJson, rows keyed by their string label fields;
  * BENCH_crypto.json — the `primitives` array (accelerated ops/sec per
    primitive; the scalar column is deliberately not gated — it is an
    implementation comparison, not a throughput);
  * BENCH_net.json — the serving-tier q/s and latency percentiles.

Metric direction is inferred from the name: qps / *_per_sec / *ops* are
higher-is-better, *_ms / *_mb / *_bytes / *accesses are lower-is-better,
anything else (ratios, counts) is skipped. A change in the losing
direction beyond the threshold (default 20%) emits a GitHub `::warning::`
annotation and makes the script exit 2; improvements and small
fluctuations pass. With SAE_PERF_GATE_STRICT=1 the exit code is meant to
fail the job; otherwise CI runs the gate with continue-on-error so a
noisy shared runner cannot turn the build red on its own.

Exit codes: 0 ok, 1 usage/parse error, 2 regression beyond threshold.
"""

import argparse
import json
import os
import sys

_HIGHER_TOKENS = ("qps", "per_sec", "ops")
# Checked BEFORE the higher-is-better tokens: "bytes_per_checkpoint" would
# otherwise never match (it doesn't END with _bytes) and "bytes_per_update"
# would match the "per_sec"-style token scan in the wrong direction.
_LOWER_TOKENS = ("bytes_per",)
_LOWER_SUFFIXES = ("_ms", "_mb", "_bytes", "accesses")


def metric_direction(name):
    """+1 when higher is better, -1 when lower is better, 0 to skip."""
    lowered = name.lower()
    if any(token in lowered for token in _LOWER_TOKENS):
        return -1
    if any(token in lowered for token in _HIGHER_TOKENS):
        return 1
    if lowered.endswith(_LOWER_SUFFIXES):
        return -1
    return 0


def extract_metrics(doc):
    """Returns {row_key: {metric: value}} for any known bench shape."""
    out = {}
    for entry in doc.get("read_heavy_95_5", []):
        model = entry.get("model", "?")
        out[model] = {
            "qps_cached": float(entry["qps_cached"]),
            "qps_uncached": float(entry["qps_uncached"]),
        }
    for row in doc.get("rows", []):
        labels = sorted(
            (k, v) for k, v in row.items() if isinstance(v, str))
        key = "/".join(f"{k}={v}" for k, v in labels) or "row"
        out[key] = {
            k: float(v) for k, v in row.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    for primitive in doc.get("primitives", []):
        out[primitive["name"]] = {
            "accel_ops_per_sec": float(primitive["accel_ops_per_sec"]),
        }
    if doc.get("bench") == "net_serving":
        out["net_serving"] = {
            k: float(doc[k])
            for k in ("qps", "p50_ms", "p99_ms", "p999_ms") if k in doc
        }
    return out


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return extract_metrics(doc), doc.get("scale")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional change that counts as a regression")
    args = parser.parse_args()

    try:
        base, base_scale = load(args.baseline)
        cur, cur_scale = load(args.current)
    except (OSError, ValueError, KeyError) as err:
        print(f"::notice::perf gate skipped: cannot parse inputs ({err})")
        return 1

    if base_scale != cur_scale:
        # Different SAE_BENCH_SCALE settings measure different workloads;
        # comparing them would only produce false alarms.
        print(f"::notice::perf gate skipped: baseline scale {base_scale} "
              f"!= current scale {cur_scale}")
        return 0

    name = os.path.basename(args.current)
    regressed = False
    compared = 0
    for row_key, metrics in sorted(base.items()):
        for metric, old in sorted(metrics.items()):
            direction = metric_direction(metric)
            new = cur.get(row_key, {}).get(metric)
            if direction == 0 or new is None or old <= 0:
                continue
            compared += 1
            delta = (new - old) / old
            line = (f"{name} {row_key}.{metric}: {old:.1f} -> {new:.1f} "
                    f"({delta:+.1%})")
            if direction * delta < -args.threshold:
                print(f"::warning title=perf regression::{line} exceeds "
                      f"the {args.threshold:.0%} threshold")
                regressed = True
            else:
                print(f"  {line}")

    if compared == 0:
        print(f"::notice::perf gate: no comparable metrics in {name}")
        return 0
    if regressed:
        strict = os.environ.get("SAE_PERF_GATE_STRICT", "") == "1"
        print(f"perf gate: regression detected "
              f"({'failing' if strict else 'warning only'})")
        return 2
    print(f"perf gate: {name} has no regression beyond threshold "
          f"({compared} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
