"""``run.py --compare A.json B.json``: is B worse than A?

Per workload and end-to-end metric: both medians and quartiles, the ratio
B / A (base A) and a verdict against the bound ``BENCHMARK.json`` fixes.
Standard library only.
"""
from __future__ import annotations

import json
import sys

#: result sets measured under different values of these are not comparable
MUST_MATCH = ("fused_backend", "nproc", "seed")

WITHIN, REGRESSION, UNRESOLVED = "within bound", "regression", "unresolved"


def median_spread(summary: dict) -> float:
    """How far a repeat of the run would move the median, roughly: the
    samples' interquartile distance as a share of the median, over sqrt(n)."""
    med = summary["median"]
    if not med:
        return 0.0
    return abs(summary["q3"] - summary["q1"]) / abs(med) / summary["n"] ** 0.5


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``a``/``b`` are metric summaries (median, q1, q3, n).  The runs' own
    spread is the noise floor: when it exceeds the bound, a difference
    inside it is unresolved, not unchanged."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse = change if better == "lower" else -change
    noise = max(median_spread(a), median_spread(b))
    if worse > bound and worse > noise:
        return REGRESSION
    if noise > bound:
        return UNRESOLVED
    return WITHIN


def refusal(a: dict, b: dict) -> str | None:
    """Why the two result sets must not be compared, if they must not."""
    pa, pb = a["provenance"], b["provenance"]
    if pa.get("smoke") or pb.get("smoke"):
        return "smoke results measure the plumbing, not the program"
    if pa.get("trace") or pb.get("trace"):
        return "per-layer result sets carry no bounds to compare against"
    for key in MUST_MATCH:
        if pa.get(key) != pb.get(key):
            return f"provenance differs in {key}: {pa.get(key)!r} vs {pb.get(key)!r}"
    return None


def compare_sets(a: dict, b: dict, contract: dict) -> list[dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ma = a["workloads"][name]["metrics"]
        mb = b["workloads"][name]["metrics"]
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            if metric not in ma or metric not in mb:
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"],
                "a": ma[metric], "b": mb[metric], "bound": spec["bound"],
                "ratio": mb[metric]["median"] / ma[metric]["median"],
                "verdict": verdict(
                    ma[metric], mb[metric], spec["bound"], spec["better"]),
            })
    return rows


def main(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    why = refusal(a, b)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = compare_sets(a, b, contract)
    fmt = lambda m: f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"  # noqa: E731
    print(f"{'workload':<15}{'metric':<14}{'unit':<5}{'A median [q1, q3]':<28}"
          f"{'B median [q1, q3]':<28}{'B/A':>7}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<15}{r['metric']:<14}{r['unit']:<5}"
              f"{fmt(r['a']):<28}{fmt(r['b']):<28}{r['ratio']:>7.3f}"
              f"{r['bound']:>7.2f}  {r['verdict']}")
    for name in a["workloads"]:
        fa_, fb_ = (s["workloads"].get(name, {}).get("failed") for s in (a, b))
        print(f"{name}: failed runs A = {fa_}, B = {fb_}")
    failed = any(
        s["workloads"][w]["failed"] for s in (a, b) for w in s["workloads"])
    regressed = any(r["verdict"] == REGRESSION for r in rows)
    return 1 if regressed or failed else 0
