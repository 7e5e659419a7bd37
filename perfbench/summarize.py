"""Medians and quartiles over the seeds of saved benchmark results.

    python3 perfbench/summarize.py .perfbench-out/*-trace0.json

Reads the result files that run.py writes and prints, per workload and
metric, the median, the quartiles and the spread (interquartile range over
median) as JSON.  baseline.json was made this way.
"""

import json
import statistics
import sys


def summarize(paths):
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs.setdefault(result["workload"], []).append(result)
    out = {}
    for workload, results in sorted(runs.items()):
        entry = {"seeds": sorted(r["seed"] for r in results),
                 "seconds": results[0]["seconds"],
                 "env": results[0]["env"],
                 "correct": all(r["correct"] for r in results),
                 "notes": results[0]["notes"]}
        for name in results[0]["values"]:
            values = [r["values"][name] for r in results
                      if r["values"][name] is not None]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median if median else None}
        out[workload] = entry
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    sys.stdout.write("\n")
