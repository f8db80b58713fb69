#!/usr/bin/env python3
"""Consolidate the MG timing + stencil/backend-ablation runs into BENCH_mg.json.

Usage:
    mg_consolidate.py ABL_JSON BACKEND_JSON SCHEMA_JSON OUT_JSON \
        MIN_IMPROVEMENT_PCT MIN_SPEEDUP RUN_TXT... [meta...]

ABL_JSON is abl_stencil's google-benchmark JSON output, BACKEND_JSON is
abl_backend's; each RUN_TXT is one teed npb_mg result block.  The summary
records per-run wall time / Mop/s / verification verdict (plus stencil
mode, backend, and reused-row count for the SAC variants), the per-kernel
ns/point ladder, and the per-row-primitive backend breakdown, then applies
two gates at the class-W-sized grid (n = 66):
  * the kPlanes improvement over kGrouped must reach MIN_IMPROVEMENT_PCT;
  * the simd row engine must beat scalar by MIN_SPEEDUP x on the fused
    resid and psinv row paths (BM_BackendFused, docs/backends.md).
A failed gate, an unparseable run, or an UNSUCCESSFUL verification is a
bench failure, not a silent artifact.  The file is written only after the
summary validates against the checked-in schema.

Extra ``key=value`` arguments are stored under ``"run"``.
Uses only the Python standard library (plus the sibling obs_consolidate
module for the shared schema validator).
"""

import json
import re
import sys

from obs_consolidate import validate

GATE_N = 66  # the class-W-sized rung of the abl_stencil ladder

# Lines of the npb_mg result block (driver.cpp npb_report + the npb_mg
# stencil-mode trailer).  Anchored loosely so column-width tweaks survive.
RUN_FIELDS = {
    "impl": (r"^ Implementation\s+= (.+)$", str),
    "class": (r"^ Class\s+= (.+)$", str),
    "seconds": (r"^ Time in seconds\s+= ([0-9.eE+-]+)$", float),
    "mops": (r"^ Mop/s total\s+= ([0-9.eE+-]+)$", float),
    "verification": (r"^ Verification\s+= (.+)$", str),
    "stencil_mode": (r"^ Stencil mode\s+= (.+)$", str),
    "backend": (r"^ Backend\s+= (.+)$", str),
    "rows_reused": (r"^ Rows reused\s+= ([0-9]+)$", int),
}
OPTIONAL_FIELDS = {"stencil_mode", "backend", "rows_reused"}


def parse_run(path):
    with open(path) as f:
        text = f.read()
    row = {}
    for field, (pattern, kind) in RUN_FIELDS.items():
        m = re.search(pattern, text, re.MULTILINE)
        if m:
            row[field] = kind(m.group(1).strip())
    missing = set(RUN_FIELDS) - OPTIONAL_FIELDS - set(row)
    if missing:
        raise ValueError(f"{path}: missing {sorted(missing)}")
    return row


def parse_ablation(path):
    """abl_stencil gbench JSON -> [{kernel, n, ns_per_point}]."""
    with open(path) as f:
        doc = json.load(f)
    points = []
    for b in doc.get("benchmarks", []):
        m = re.match(r"^BM_Stencil(\w+)/(\d+)$", b.get("name", ""))
        if not m or "items_per_second" not in b:
            continue
        points.append(
            {
                "kernel": m.group(1).lower(),
                "n": int(m.group(2)),
                "ns_per_point": 1e9 / b["items_per_second"],
            }
        )
    return points


def parse_backend_ablation(path):
    """abl_backend gbench JSON -> [{family, primitive, backend, n, ns_per_point}].

    Runs with --benchmark_repetitions emit one entry per repetition (plus
    aggregate rows, whose suffixed names the regex skips); duplicates keep
    the fastest sample, so a one-off scheduling hiccup on a shared runner
    cannot fail the speedup gate.
    """
    with open(path) as f:
        doc = json.load(f)
    best = {}
    for b in doc.get("benchmarks", []):
        m = re.match(
            r"^BM_Backend(Row|Fused|Kernel)/(\w+)/([a-z0-9-]+)/(\d+)$",
            b.get("name", ""),
        )
        if not m or "items_per_second" not in b:
            continue
        key = (m.group(1).lower(), m.group(2), m.group(3), int(m.group(4)))
        ns = 1e9 / b["items_per_second"]
        if key not in best or ns < best[key]:
            best[key] = ns
    return [
        {
            "family": family,
            "primitive": primitive,
            "backend": backend,
            "n": n,
            "ns_per_point": ns,
        }
        for (family, primitive, backend, n), ns in best.items()
    ]


def backend_gate(points, min_speedup):
    """The simd-vs-scalar speedup on the fused resid/psinv rows at n=66."""
    fused = {
        (p["primitive"], p["backend"]): p["ns_per_point"]
        for p in points
        if p["family"] == "fused" and p["n"] == GATE_N
    }
    gate = {"n": GATE_N, "min_speedup": min_speedup}
    for prim in ("resid", "psinv"):
        try:
            scalar = fused[(prim, "scalar")]
            simd = fused[(prim, "simd")]
        except KeyError as e:
            raise ValueError(f"no fused {prim} sample for backend {e}")
        gate[prim] = {
            "scalar_ns_per_point": scalar,
            "simd_ns_per_point": simd,
            "speedup": scalar / simd,
        }
    return gate


def main(argv):
    if len(argv) < 8:
        sys.stderr.write(__doc__)
        return 2
    abl_path, backend_path, schema_path, out_path = argv[1:5]
    min_improvement = float(argv[5])
    min_speedup = float(argv[6])
    run_paths = [a for a in argv[7:] if "=" not in a]
    run_meta = dict(kv.split("=", 1) for kv in argv[7:] if "=" in kv)

    runs = [parse_run(p) for p in run_paths]
    bad = [r for r in runs if r["verification"] == "UNSUCCESSFUL"]
    if bad:
        for r in bad:
            sys.stderr.write(
                f"UNSUCCESSFUL verification: {r['impl']} class {r['class']}\n"
            )
        return 1

    points = parse_ablation(abl_path)
    ladder = {(p["kernel"], p["n"]): p["ns_per_point"] for p in points}
    try:
        grouped = ladder[("grouped", GATE_N)]
        planes = ladder[("planes", GATE_N)]
    except KeyError as e:
        sys.stderr.write(f"{abl_path}: no ns/point sample for {e}\n")
        return 1
    improvement = 100.0 * (1.0 - planes / grouped)

    backend_points = parse_backend_ablation(backend_path)
    try:
        be_gate = backend_gate(backend_points, min_speedup)
    except ValueError as e:
        sys.stderr.write(f"{backend_path}: {e}\n")
        return 1

    summary = {
        "run": run_meta,
        "runs": runs,
        "stencil": {
            "points": points,
            "gate": {
                "n": GATE_N,
                "grouped_ns_per_point": grouped,
                "planes_ns_per_point": planes,
                "improvement_pct": improvement,
                "min_improvement_pct": min_improvement,
            },
        },
        "backend": {
            "points": backend_points,
            "gate": be_gate,
        },
    }

    with open(schema_path) as f:
        schema = json.load(f)
    errors = validate(summary, schema)
    if errors:
        sys.stderr.write("BENCH_mg.json failed schema validation:\n")
        for e in errors:
            sys.stderr.write(f"  {e}\n")
        return 1

    with open(out_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(
        f"{out_path}: {len(runs)} runs, {len(points)} stencil samples, "
        f"{len(backend_points)} backend samples; "
        f"planes vs grouped at n={GATE_N}: {improvement:.1f}% faster "
        f"(gate {min_improvement:.0f}%); simd vs scalar fused rows: "
        f"resid {be_gate['resid']['speedup']:.2f}x, "
        f"psinv {be_gate['psinv']['speedup']:.2f}x "
        f"(gate {min_speedup:.2f}x)"
    )
    failed = False
    if improvement < min_improvement:
        sys.stderr.write(
            f"GATE FAILED: kPlanes improves on kGrouped by only "
            f"{improvement:.1f}% at n={GATE_N} "
            f"(required {min_improvement:.0f}%)\n"
        )
        failed = True
    for prim in ("resid", "psinv"):
        speedup = be_gate[prim]["speedup"]
        if speedup < min_speedup:
            sys.stderr.write(
                f"GATE FAILED: simd row engine beats scalar by only "
                f"{speedup:.2f}x on fused {prim} at n={GATE_N} "
                f"(required {min_speedup:.2f}x)\n"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
