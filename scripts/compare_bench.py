#!/usr/bin/env python3
"""Diff two rtl bench JSON files and flag perf regressions.

This is the gate future perf PRs run against (see docs/PERF.md). It
understands both the per-driver documents the C++ `rtl::bench::Reporter`
writes and the merged suite documents `scripts/bench.sh` produces.

Modes:
  compare_bench.py BASE NEW [--threshold F] [--min-abs-ms F] [--sigma F]
      Compare NEW against BASE; exit 1 if any timed metric regressed OR
      the comparison itself is unsound (knob mismatch, a driver that
      stopped running, a vanished gated record, a unit change).
  compare_bench.py --merge OUT IN...
      Merge per-driver documents into one suite document at OUT.
  compare_bench.py --emit-skipped DRIVER REASON
      Print a skipped-driver document (used by bench.sh when a driver
      binary was not built, e.g. bench_micro without Google Benchmark).
  compare_bench.py --self-check
      Run the built-in round-trip/regression-detection checks; exit 0
      only if the harness itself is healthy.

Regression rule (lower-is-better, applied to records whose unit is a
time unit): NEW regresses when
    new.mean > base.mean * (1 + threshold)
AND new.mean - base.mean > min_abs_ms (after unit conversion to ms)
AND new.mean - base.mean > sigma * base.stddev.

Records with unit "count" are deterministic synchronization-event
counters (flag publishes, barrier waits), and records with unit
"bytes" are deterministic footprint/traffic models (roofline bytes,
plan and execution-layout packing sizes): both gate by EXACT match —
any change, in either direction, is a gate problem, because a drift
means the scheduler or the packing changed behavior, not that the
host was noisy. Records with other units (events, efficiencies,
GB/s, derived estimates) are reported informationally but never gate.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA_VERSION = 1

# Unit -> multiplier into milliseconds. These units gate by threshold.
TIME_UNITS_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}

# Units of deterministic records: event counters and byte footprints
# (roofline models, plan/layout packing sizes). Both gate by exact match.
COUNT_UNIT = "count"
BYTES_UNIT = "bytes"
EXACT_UNITS = {COUNT_UNIT, BYTES_UNIT}


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def iter_runs(doc):
    """Yield per-driver documents from either a suite or a single doc."""
    if "runs" in doc:
        yield from doc["runs"]
    else:
        yield doc


def index_records(doc):
    """(driver, group, metric) -> record, for all non-skipped runs."""
    out = {}
    for run in iter_runs(doc):
        if run.get("skipped"):
            continue
        for rec in run.get("records", []):
            out[(run["driver"], rec["group"], rec["metric"])] = rec
    return out


def drivers_in(doc):
    return {run["driver"]: bool(run.get("skipped")) for run in iter_runs(doc)}


def configs_in(doc):
    """driver -> RTL_* knob block, for every non-skipped run. Per-driver
    because knobs may legitimately differ across drivers (bench_table1
    presets its own lighter RTL_AMP)."""
    out = {}
    for run in iter_runs(doc):
        if not run.get("skipped") and run.get("config"):
            out[run["driver"]] = {
                k: v for k, v in run["config"].items() if k.startswith("RTL_")
            }
    return out


def make_skipped_doc(driver, reason):
    return {
        "schema_version": SCHEMA_VERSION,
        "driver": driver,
        "skipped": True,
        "skip_reason": reason,
        "records": [],
    }


def merge_docs(docs):
    """Merge per-driver docs into one suite document. The machine tag is
    taken from the first non-skipped run (all runs of one bench.sh
    invocation share a machine)."""
    machine = {}
    for doc in docs:
        if not doc.get("skipped") and doc.get("machine"):
            machine = doc["machine"]
            break
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "rtl-bench-suite",
        "machine": machine,
        "runs": list(docs),
    }


def compare(base_doc, new_doc, threshold, min_abs_ms, sigma, out=sys.stdout):
    """Return (regressions, improvements, notes, problems); print a summary.

    `problems` are harness-integrity failures that make the gate fail even
    with zero timing regressions: mismatched knobs, drivers that stopped
    running, gated records that vanished, or a unit change mid-metric. A
    gate that silently stops measuring must not look like a passing gate.
    `notes` stay informational (e.g. cross-machine comparisons, which
    docs/PERF.md already declares non-gating).
    """
    base = index_records(base_doc)
    new = index_records(new_doc)

    regressions = []
    improvements = []
    notes = []
    problems = []

    # Mismatched knobs or machines make timing comparisons meaningless
    # (RTL_AMP alone rescales every solve time); surface it loudly instead
    # of letting hundreds of spurious regressions imply a real slowdown.
    base_cfgs = configs_in(base_doc)
    new_cfgs = configs_in(new_doc)
    for drv in sorted(set(base_cfgs) & set(new_cfgs)):
        bc, nc = base_cfgs[drv], new_cfgs[drv]
        if bc == nc:
            continue
        diff = {
            k: (bc.get(k), nc.get(k))
            for k in sorted(set(bc) | set(nc))
            if bc.get(k) != nc.get(k)
        }
        problems.append(
            f"CONFIG MISMATCH in {drv}: {diff} — timings are not comparable "
            "(see docs/PERF.md); treat any regressions below as suspect"
        )
    base_host = (base_doc.get("machine") or {}).get("hostname")
    new_host = (new_doc.get("machine") or {}).get("hostname")
    if base_host and new_host and base_host != new_host:
        notes.append(
            f"machine mismatch: base={base_host} new={new_host} — "
            "cross-machine timings are informational only"
        )

    base_drivers = drivers_in(base_doc)
    new_drivers = drivers_in(new_doc)
    for drv, skipped in sorted(new_drivers.items()):
        if skipped and not base_drivers.get(drv, True):
            problems.append(f"driver {drv}: ran in base but skipped in new")
    for drv in sorted(set(base_drivers) - set(new_drivers)):
        problems.append(f"driver {drv}: present in base, missing from new")

    # Every gated record (timed or counter) that disappeared from a driver
    # that still ran.
    for key in sorted(set(base) - set(new)):
        drv, group, metric = key
        if new_drivers.get(drv, True):
            continue  # whole driver skipped/missing: already flagged above
        unit = base[key].get("unit")
        if unit in TIME_UNITS_MS or unit in EXACT_UNITS:
            problems.append(
                f"gated record {drv} {group}/{metric} vanished from new "
                "(renamed or no longer measured?)"
            )

    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        unit = n.get("unit", "")
        if b.get("unit", "") != unit:
            drv, group, metric = key
            problems.append(
                f"unit changed for {drv} {group}/{metric}: "
                f"{b.get('unit', '')!r} -> {unit!r}; means are not comparable"
            )
            continue
        scale = TIME_UNITS_MS.get(unit)
        bm, nm = b.get("mean"), n.get("mean")
        if bm is None or nm is None:
            continue
        if unit in EXACT_UNITS:
            # Deterministic records: any drift means the scheduler's
            # synchronization behavior or a packing/traffic model changed
            # — exact match or fail.
            if bm != nm:
                drv, group, metric = key
                label = "COUNTER" if unit == COUNT_UNIT else "BYTES"
                problems.append(
                    f"{label} MISMATCH {drv} {group}/{metric}: "
                    f"{bm:g} -> {nm:g} (unit {unit!r} gates by exact match)"
                )
            continue
        if scale is None:
            continue  # non-time record: informational only
        delta_ms = (nm - bm) * scale
        if bm > 0:
            rel = nm / bm - 1.0
        else:
            rel = 0.0 if nm <= 0 else float("inf")
        entry = (key, bm, nm, rel, unit)
        if (
            rel > threshold
            and delta_ms > min_abs_ms
            and (nm - bm) > sigma * (b.get("stddev") or 0.0)
        ):
            regressions.append(entry)
        elif rel < -threshold and -delta_ms > min_abs_ms:
            improvements.append(entry)

    for (drv, group, metric), bm, nm, rel, unit in regressions:
        print(
            f"REGRESSION {drv} {group}/{metric}: "
            f"{bm:.4g} -> {nm:.4g} {unit} (+{rel * 100:.1f}%)",
            file=out,
        )
    for (drv, group, metric), bm, nm, rel, unit in improvements:
        print(
            f"improvement {drv} {group}/{metric}: "
            f"{bm:.4g} -> {nm:.4g} {unit} ({rel * 100:.1f}%)",
            file=out,
        )
    for problem in problems:
        print(f"GATE PROBLEM: {problem}", file=out)
    for note in notes:
        print(f"note: {note}", file=out)

    compared = len(set(base) & set(new))
    print(
        f"compared {compared} records: {len(regressions)} regressions, "
        f"{len(improvements)} improvements, {len(problems)} gate problems",
        file=out,
    )
    return regressions, improvements, notes, problems


def _mkrec(group, metric, mean, unit="ms", stddev=0.0):
    return {
        "group": group,
        "metric": metric,
        "unit": unit,
        "reps": 3,
        "mean": mean,
        "stddev": stddev,
        "min": mean,
        "max": mean,
    }


def _mkdoc(driver, records):
    return {
        "schema_version": SCHEMA_VERSION,
        "driver": driver,
        "skipped": False,
        "machine": {"hostname": "self-check", "hardware_concurrency": 1},
        "config": {"RTL_PROCS": 2, "RTL_REPS": 3, "RTL_AMP": 1},
        "records": records,
    }


def self_check():
    """Exercise merge + compare on synthetic documents."""
    import copy
    import io

    base = merge_docs(
        [
            _mkdoc(
                "bench_fake",
                [
                    _mkrec("P1", "parallel_ms", 10.0),
                    _mkrec("P1", "sequential_ms", 5.0, stddev=0.1),
                    _mkrec("P1", "efficiency", 0.9, unit="eff"),
                    _mkrec("P1", "tiny_ms", 0.001),
                    _mkrec("P1", "barrier_waits", 128.0, unit="count"),
                    _mkrec("P1", "steals", 17.0, unit="events"),
                    _mkrec("P1", "plan_bytes", 65536.0, unit="bytes"),
                    _mkrec("P1", "bandwidth", 12.5, unit="GB/s"),
                ],
            ),
            make_skipped_doc("bench_absent", "binary not built"),
        ]
    )

    # 1. JSON round-trip preserves the comparison result.
    base = json.loads(json.dumps(base))

    # 2. Self-comparison must be entirely clean.
    r, i, _, p_ = compare(base, base, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r and not i and not p_, "self-comparison must be clean"

    # 3. A 2x slowdown on a gated metric must be flagged.
    slow = copy.deepcopy(base)
    slow["runs"][0]["records"][0]["mean"] = 20.0
    r, _, _, _ = compare(base, slow, 0.10, 0.05, 0.0, out=io.StringIO())
    assert len(r) == 1 and r[0][0][2] == "parallel_ms", "2x slowdown missed"

    # 4. Sub-threshold jitter must not be flagged.
    jitter = copy.deepcopy(base)
    jitter["runs"][0]["records"][0]["mean"] = 10.5
    r, _, _, _ = compare(base, jitter, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "5% jitter should pass a 10% threshold"

    # 5. Noise-floor: huge relative change on a microscopic timing passes.
    noise = copy.deepcopy(base)
    noise["runs"][0]["records"][3]["mean"] = 0.01
    r, _, _, _ = compare(base, noise, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "sub-min-abs change should not gate"

    # 6. Non-time units never gate.
    eff = copy.deepcopy(base)
    eff["runs"][0]["records"][2]["mean"] = 0.1
    r, _, _, _ = compare(base, eff, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "efficiency records must not gate"

    # 7. Sigma guard: a 20% step inside 1 stddev is noise when sigma=2.
    noisy = copy.deepcopy(base)
    noisy["runs"][0]["records"][1]["stddev"] = 2.0
    noisy2 = copy.deepcopy(noisy)
    noisy2["runs"][0]["records"][1]["mean"] = 6.0
    r, _, _, _ = compare(noisy, noisy2, 0.10, 0.05, 2.0, out=io.StringIO())
    assert not r, "within-sigma change should pass when sigma=2"
    r, _, _, _ = compare(noisy, noisy2, 0.10, 0.05, 0.0, out=io.StringIO())
    assert len(r) == 1, "same change must gate when sigma=0"

    # 8. A driver going from ran -> skipped fails the gate.
    skipped = copy.deepcopy(base)
    skipped["runs"][0] = make_skipped_doc("bench_fake", "now missing")
    _, _, _, probs = compare(base, skipped, 0.10, 0.05, 0.0, out=io.StringIO())
    assert any("skipped in new" in n for n in probs), "skip transition missed"

    # 9. Mismatched knobs fail the gate; machine drift is a note only.
    other_cfg = copy.deepcopy(base)
    other_cfg["runs"][0]["config"]["RTL_AMP"] = 4000
    _, _, _, probs = compare(
        base, other_cfg, 0.10, 0.05, 0.0, out=io.StringIO()
    )
    assert any("CONFIG MISMATCH" in n for n in probs), "config drift missed"
    other_host = copy.deepcopy(base)
    other_host["machine"] = {"hostname": "elsewhere"}
    other_host["runs"][0]["machine"] = {"hostname": "elsewhere"}
    _, _, notes, probs = compare(
        base, other_host, 0.10, 0.05, 0.0, out=io.StringIO()
    )
    assert any("machine mismatch" in n for n in notes), "host drift missed"
    assert not probs, "machine drift alone must not fail the gate"

    # 10. A gated record vanishing from a still-running driver fails the
    # gate without counting as a timing regression.
    vanished = copy.deepcopy(base)
    vanished["runs"][0]["records"] = [
        r
        for r in vanished["runs"][0]["records"]
        if r["metric"] != "parallel_ms"
    ]
    r, _, _, probs = compare(base, vanished, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "vanished record must not count as a regression"
    assert any("vanished" in n for n in probs), "vanished gated record missed"

    # 11. A unit change mid-metric fails the gate instead of producing a
    # nonsense cross-unit comparison.
    reunit = copy.deepcopy(base)
    reunit["runs"][0]["records"][0]["unit"] = "us"
    reunit["runs"][0]["records"][0]["mean"] = 10000.0  # same real time
    r, _, _, probs = compare(base, reunit, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "unit change must not be reported as a regression"
    assert any("unit changed" in n for n in probs), "unit change missed"

    # 12. Unit-"count" records gate by exact match: any drift (even one
    # below the relative threshold, in either direction) is a problem, and
    # a vanished counter fails like a vanished timing.
    drift = copy.deepcopy(base)
    drift["runs"][0]["records"][4]["mean"] = 127.0
    r, _, _, probs = compare(base, drift, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "counter drift must not be reported as a timing regression"
    assert any("COUNTER MISMATCH" in n for n in probs), "counter drift missed"
    gone = copy.deepcopy(base)
    gone["runs"][0]["records"] = [
        r
        for r in gone["runs"][0]["records"]
        if r["metric"] != "barrier_waits"
    ]
    _, _, _, probs = compare(base, gone, 0.10, 0.05, 0.0, out=io.StringIO())
    assert any("vanished" in n for n in probs), "vanished counter missed"

    # 13. Unit-"events" records (interleaving-dependent steal counts)
    # never gate, no matter how much they move.
    ev = copy.deepcopy(base)
    ev["runs"][0]["records"][5]["mean"] = 9000.0
    r, _, _, probs = compare(base, ev, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r and not probs, "events records must stay informational"

    # 14. Unit-"bytes" records (roofline traffic models, plan
    # footprints) gate by exact match like counters: a one-byte drift
    # in either direction is a problem, and a vanished bytes record fails
    # like a vanished timing.
    bdrift = copy.deepcopy(base)
    bdrift["runs"][0]["records"][6]["mean"] = 65535.0
    r, _, _, probs = compare(base, bdrift, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r, "bytes drift must not be reported as a timing regression"
    assert any("BYTES MISMATCH" in n for n in probs), "bytes drift missed"
    bgone = copy.deepcopy(base)
    bgone["runs"][0]["records"] = [
        r
        for r in bgone["runs"][0]["records"]
        if r["metric"] != "plan_bytes"
    ]
    _, _, _, probs = compare(base, bgone, 0.10, 0.05, 0.0, out=io.StringIO())
    assert any("vanished" in n for n in probs), "vanished bytes record missed"

    # 15. Unit-"GB/s" records (achieved bandwidth) never gate: they are
    # derived from gated timings and would double-report any change.
    gbps = copy.deepcopy(base)
    gbps["runs"][0]["records"][7]["mean"] = 0.1
    r, _, _, probs = compare(base, gbps, 0.10, 0.05, 0.0, out=io.StringIO())
    assert not r and not probs, "GB/s records must stay informational"

    print("self-check OK (15 checks)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("files", nargs="*", help="BASE NEW (compare mode)")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative slowdown that counts as a regression (default 0.10)",
    )
    ap.add_argument(
        "--min-abs-ms",
        type=float,
        default=0.05,
        help="absolute slowdown floor in ms; smaller deltas never gate",
    )
    ap.add_argument(
        "--sigma",
        type=float,
        default=0.0,
        help="also require the delta to exceed sigma * base stddev "
        "(0 disables the guard)",
    )
    ap.add_argument("--merge", metavar="OUT", help="merge input docs into OUT")
    ap.add_argument(
        "--emit-skipped",
        nargs=2,
        metavar=("DRIVER", "REASON"),
        help="print a skipped-driver document",
    )
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if args.self_check:
        return self_check()

    if args.emit_skipped:
        driver, reason = args.emit_skipped
        json.dump(make_skipped_doc(driver, reason), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    if args.merge:
        if not args.files:
            ap.error("--merge needs at least one input file")
        merged = merge_docs([load_doc(p) for p in args.files])
        with open(args.merge, "w", encoding="utf-8") as f:
            json.dump(merged, f, indent=2)
            f.write("\n")
        runs = merged["runs"]
        skipped = sum(1 for r in runs if r.get("skipped"))
        print(
            f"merged {len(runs)} driver runs ({skipped} skipped) "
            f"into {args.merge}"
        )
        return 0

    if len(args.files) != 2:
        ap.error("compare mode needs exactly two files: BASE NEW")
    base_doc, new_doc = load_doc(args.files[0]), load_doc(args.files[1])
    regressions, _, _, problems = compare(
        base_doc, new_doc, args.threshold, args.min_abs_ms, args.sigma
    )
    return 1 if regressions or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
