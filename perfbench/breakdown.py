#!/usr/bin/env python3
"""Self-time breakdown of a traced benchmark run.

    python3 perfbench/breakdown.py .bench_out/trace-zi_exchange-1.json

Reads the Chrome trace JSON a `--trace 1` run writes and prints, per span
name and per layer (the name up to the first '.'), the span count, the
total time, the self time (span time minus the time its child spans
cover) and the self time's share of the top-level spans' time.
"""
import collections
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as handle:
        events = json.load(handle)["traceEvents"]
    child_us = collections.defaultdict(float)
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            child_us[parent] += event["dur"]
    by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
    root_us = 0.0
    for event in events:
        if event["args"]["parent"] < 0:
            root_us += event["dur"]
        row = by_name[event["name"]]
        row[0] += 1
        row[1] += event["dur"]
        row[2] += max(0.0, event["dur"] - child_us[event["args"]["id"]])
    by_layer = collections.defaultdict(float)
    print(f"{'span':36s} {'count':>8s} {'total ms':>11s} {'self ms':>11s} "
          f"{'self share':>10s}")
    for name, (count, total, own) in sorted(by_name.items(),
                                            key=lambda item: -item[1][2]):
        by_layer[name.split(".")[0]] += own
        print(f"{name:36s} {count:8d} {total / 1e3:11.1f} {own / 1e3:11.1f} "
              f"{own / root_us:10.2%}")
    print()
    for layer, own in sorted(by_layer.items(), key=lambda item: -item[1]):
        print(f"layer {layer:30s} {own / 1e3:20.1f} ms {own / root_us:10.2%}")


if __name__ == "__main__":
    main()
