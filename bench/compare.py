"""``run.py --compare A.json B.json``: did B get worse than A?

Per (workload, end-to-end metric): both values, the relative difference,
the metric's bound, and a verdict. ``regressed``: B's value is worse
than A's by more than the bound. ``unresolved``: the rep-to-rep spread
inside either run (IQR / value) is wider than the bound, so the
difference cannot be told from noise — unless every B rep reads better
than every A rep. Failed operations and count-type layer metrics that
differ also fail the comparison: counts repeat exactly on one commit.
The two walls are listed too, ``ungated``: host weather moves them 1.4-2x.
"""

from __future__ import annotations

import json

from bench.metrics import BY_NAME, END_TO_END, PER_LAYER, WALLS

OK, REGRESSED, UNRESOLVED, UNGATED = "ok", "regressed", "unresolved", "ungated"


def spread(entry: dict) -> float:
    """IQR of the reps behind a value, as a share of it; 0 below 3 reps,
    where quartiles say nothing."""
    if entry.get("n", 1) < 3 or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(metric, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, relative worsening of b against a; positive = worse)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    if max(spread(a), spread(b)) > metric.bound:
        sa, sb = a.get("samples"), b.get("samples")
        clearly_better = (
            sa and sb and (max(sb) < min(sa) if sign > 0 else min(sb) > max(sa))
        )
        return (OK if clearly_better else UNRESOLVED), worse
    return (REGRESSED if worse > metric.bound else OK), worse


def compare(a_doc: dict, b_doc: dict) -> tuple[list[dict], list[str]]:
    """Rows for the workloads both files hold, and a list of problems
    (failed ops, count mismatches, missing workloads)."""
    rows: list[dict] = []
    problems: list[str] = []
    for name in sorted(set(a_doc["workloads"]) ^ set(b_doc["workloads"])):
        problems.append(f"{name}: present in only one file")
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        for label, doc in (("A", a), ("B", b)):
            if doc["failed"] or not doc["correct"]:
                problems.append(
                    f"{name}: {label} failed {doc['failed']} of "
                    f"{doc['attempted']} operations (failed_share bound is 0)"
                )
        for metric in END_TO_END:
            ea, eb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
            what, worse = verdict(metric, ea, eb)
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": ea["value"], "b": eb["value"], "worse": worse,
                "bound": metric.bound,
                "spread": max(spread(ea), spread(eb)), "verdict": what,
            })
        for wall in WALLS:
            ea, eb = a["per_layer"][wall], b["per_layer"][wall]
            rows.append({
                "workload": name, "metric": wall, "unit": BY_NAME[wall].unit,
                "a": ea["value"], "b": eb["value"],
                "worse": (eb["value"] - ea["value"]) / ea["value"],
                "bound": None, "spread": max(spread(ea), spread(eb)),
                "verdict": UNGATED,
            })
        for metric in PER_LAYER:
            if metric.kind != "count":
                continue
            va = a["per_layer"].get(metric.name, {}).get("value")
            vb = b["per_layer"].get(metric.name, {}).get("value")
            if va != vb:
                problems.append(f"{name}: count {metric.name} differs: {va} vs {vb}")
    return rows, problems


def main(path_a: str, path_b: str) -> int:
    """Exit status: 0 all ok, 1 a regression or problem, 2 only
    unresolved pairs."""
    with open(path_a) as fa, open(path_b) as fb:
        rows, problems = compare(json.load(fa), json.load(fb))
    print(f"{'workload':24s} {'metric':20s} {'A':>10s} {'B':>10s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for r in rows:
        bound = "     -" if r["bound"] is None else f"{r['bound']:6.0%}"
        print(f"{r['workload']:24s} {r['metric']:20s} {r['a']:10.4g} "
              f"{r['b']:10.4g} {r['worse']:+9.1%} {bound} "
              f"{r['spread']:7.1%}  {r['verdict']}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    verdicts = {r["verdict"] for r in rows}
    if problems or REGRESSED in verdicts:
        return 1
    return 2 if UNRESOLVED in verdicts else 0
