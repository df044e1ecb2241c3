#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]
    python3 perfbench/run.py --record-golden

Run from the root of a checkout.  The script copies the checkout's
dune-project, lib and bin and the harness sources (perfbench/harness) into
a build tree of its own under .bench_build, builds the harness and verifyd
there, then runs passes of the named workload, each in a fresh harness
process, until the run has lasted --seconds (at least one pass).  Every
pass is checked against perfbench/golden.json.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(medians over the passes); with --trace 1 the run makes one untraced and
one traced pass and reports the per-layer metrics, after printing the
traced pass's layers table.

Workloads: campaign, assure, attack, serve (see perfbench/README.md).
--smoke runs every workload on tiny inputs, for the benchmark's tests.
--record-golden rewrites golden.json from the current tree.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(BUILD, "src")  # the build tree's sources
OUT = os.path.join(BUILD, "_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")
HARNESS = os.path.join(OUT, "default", "perfbench", "harness", "perfbench.exe")
VERIFYD = os.path.join(OUT, "default", "bin", "verifyd.exe")
# the harness's dune file, under another name so that the repository's own
# build leaves the benchmark out
HARNESS_DUNE = os.path.join("perfbench", "harness", "dune.harness")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("campaign", "assure", "attack", "serve")
# passes per run at least (a campaign pass is short and parallel, so its
# median needs several), and set-up samples per run at least for the
# workloads whose set-up is cheap (set-up-only processes make up the
# difference); attack and serve take one set-up per pass, 6-10 s each
MIN_PASSES = {"campaign": 2, "assure": 1, "attack": 1, "serve": 1}
SETUP_SAMPLES = {"campaign": 3, "assure": 3}
REQUESTS_PER_SECOND = 1600  # serve: requests per --seconds of run length
# serve: requests per pass at least, so that at least ten warm verify
# round trips (80% of the mix) lie beyond their p99
MIN_REQUESTS = 1250
PASS_TIMEOUT = 170
LOADGEN_MAX_CPU_FRAC = 0.5  # of one core, over the measured window


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


# --------------------------------------------------------------------------
# Build


def build():
    """Builds the harness and verifyd in a dune tree of their own: the
    checkout's dune-project, lib and bin, copied afresh each run, plus the
    harness sources with their dune file under its real name."""
    for need in ("dune-project", "lib", os.path.join("bin", "verifyd.ml"), HARNESS_DUNE):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a checkout of the repository: %s is missing" % need)
    shutil.rmtree(SRC, ignore_errors=True)
    os.makedirs(os.path.join(SRC, "perfbench", "harness"))
    shutil.copy2(os.path.join(ROOT, "dune-project"), SRC)
    for d in ("lib", "bin"):
        shutil.copytree(os.path.join(ROOT, d), os.path.join(SRC, d))
    harness_src = os.path.join(HERE, "harness")
    for f in os.listdir(harness_src):
        if f.endswith(".ml"):
            shutil.copy2(os.path.join(harness_src, f), os.path.join(SRC, "perfbench", "harness"))
    shutil.copy2(os.path.join(ROOT, HARNESS_DUNE), os.path.join(SRC, "perfbench", "harness", "dune"))
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(BUILD, "xdg-cache"))
    cmd = ["dune", "build", "--root", SRC, "--build-dir", OUT,
           "--display", "quiet", "./perfbench/harness/perfbench.exe",
           "./bin/verifyd.exe"]
    try:
        proc = subprocess.run(cmd, cwd=SRC, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed")


# --------------------------------------------------------------------------
# Passes


def harness(workload, args, timeout=PASS_TIMEOUT):
    """Runs one harness process; returns its JSON result."""
    cmd = [HARNESS, workload] + args
    if workload == "serve":
        os.makedirs(RUN_DIR, exist_ok=True)
        cmd += ["--verifyd", VERIFYD, "--socket",
                os.path.relpath(os.path.join(RUN_DIR, "verifyd.sock"), ROOT)]
    # its own process group, so a timeout takes the daemon down with it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s pass exceeded %ds" % (workload, timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s pass failed (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])


def pass_args(workload, seed, seconds, smoke, traced):
    args = ["--seed", str(seed)]
    if smoke:
        args.append("--smoke")
    if traced:
        args.append("--trace")
    if workload == "serve":
        n = 200 if smoke else max(MIN_REQUESTS, seconds * REQUESTS_PER_SECOND)
        args += ["--requests", str(n)]
    return args


# --------------------------------------------------------------------------
# Oracle


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (GOLDEN, e))


def search_key(s):
    return {k: s[k] for k in ("kind", "property", "depth", "states")}


def failures(workload, r, golden, smoke):
    """Operations of pass [r] that differ from the golden answers."""
    bad = []
    if workload in ("campaign", "assure"):
        for k, fp in r["verdicts"].items():
            if golden["verdicts"].get(k) != fp:
                bad.append("verdict " + k)
    if workload == "assure":
        lint = golden["smoke_lint" if smoke else "lint"]
        if r["lint"] != lint:
            bad.append("lint gate %s, expected %s" % (r["lint"], lint))
        c = r["certificate"]
        if not c["accepted"] or c["errors"] != 0:
            bad.append("certificate rejected (%d errors)" % c["errors"])
    if workload == "attack":
        expect = golden["smoke_searches" if smoke else "searches"]
        for name, s in r["searches"].items():
            if name not in expect or search_key(s) != search_key(expect[name]):
                bad.append("search %s: %s" % (name, search_key(s)))
    if workload == "serve":
        for k, fp in r["primed"].items():
            if golden["verdicts"].get(k) != fp:
                bad.append("verdict " + k)
        bad += ["reply"] * r["failed"]
        # the numbers must measure verifyd, not a saturated client
        if r["loadgen.cpu_frac"] > LOADGEN_MAX_CPU_FRAC or r["loadgen.in_flight"] > 2:
            bad.append("load generator saturated: cpu_frac %.2f, in flight %d"
                       % (r["loadgen.cpu_frac"], r["loadgen.in_flight"]))
    return bad


# --------------------------------------------------------------------------
# Runs


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (SPEC, e))


def run_untraced(workload, seed, seconds, smoke, golden, spec):
    t0 = time.monotonic()
    passes, bad = [], []
    i = 0
    while len(passes) < (1 if smoke else MIN_PASSES[workload]) or time.monotonic() - t0 < seconds:
        r = harness(workload, pass_args(workload, seed * 100 + i, seconds, smoke, False))
        bad += failures(workload, r, golden, smoke)
        passes.append(r)
        i += 1
    setups = [r["setup_s"] for r in passes]
    for _ in range(0 if smoke else max(0, SETUP_SAMPLES.get(workload, 0) - len(passes))):
        setups.append(harness(workload, ["--setup-only"])["setup_s"])
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        vals = setups if name == "setup_s" else [r[name] for r in passes]
        metrics[name] = {"value": statistics.median(vals), "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in passes)
    for line in bad:
        print("perfbench: FAILED " + line)
    print("perfbench: %s: %d pass(es), %d setup sample(s)" % (workload, len(passes), len(setups)))
    return attempted, len(bad), metrics


def count_check(workload, per_layer, golden, spec, smoke):
    """Compares every count with the range recorded from this commit (two
    traced passes).  A count the recording saw vary is reported as
    non-deterministic, with its spread; a count outside its recorded range
    is reported as differing from it.  Neither is gated on."""
    if smoke:
        return
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    recorded = golden["counts"].get(workload, {})
    for name, v in sorted(per_layer.items()):
        if units.get(name) != "count" or name not in recorded:
            continue
        lo, hi = recorded[name]
        if lo == hi == v:
            continue
        if lo <= v <= hi:
            print("perfbench: count %s = %s is non-deterministic, recorded %s..%s"
                  % (name, v, lo, hi))
        else:
            print("perfbench: count %s = %s differs from the recorded range %s..%s"
                  % (name, v, lo, hi))


def print_table(workload, rows, wall_ms):
    print("perfbench: layers of the traced %s pass (ms; rows sum to %.1f ms)" % (workload, wall_ms))
    print("  %-34s %12s %8s %10s %10s %6s %6s" % ("row", "ms", "share", "minor_Mw", "major_Mw", "minor", "major"))
    for r in rows:
        g = r.get("gc")
        gc = ("%10.2f %10.2f %6d %6d" % (g["gc.minor_mw"], g["gc.major_mw"], g["gc.minor_n"], g["gc.major_n"])
              if g else "%10s %10s %6s %6s" % ("", "", "", ""))
        print("  %-34s %12.1f %7.1f%% %s" % (r["row"], r["ms"], 100 * r["ms"] / wall_ms, gc))


# Per-layer metrics a workload does not measure, as names or name prefixes:
# the layers it never calls into and, for serve, the daemon's internals,
# which it exposes only through its metrics and status replies.  They are
# reported as 0; any other per-layer metric a traced pass does not emit
# fails the run.
NOT_MEASURED = {
    "campaign": ("kernel.traced_campaign_ms", "analysis.", "certify.", "check_s", "cert_mb",
                 "server.", "rtt_", "verify_p99_ms", "cafeobj.", "mc.", "loadgen."),
    "assure": ("kernel.extend_us", "analysis.reduction", "server.", "rtt_", "verify_p99_ms",
               "cafeobj.", "mc.", "loadgen."),
    "attack": ("tls.", "core.", "kernel.", "analysis.lint.", "analysis.certgen_ms", "certify.",
               "check_s", "cert_mb", "server.", "rtt_", "verify_p99_ms", "cafeobj.", "loadgen."),
    "serve": ("tls.", "core.", "kernel.", "sched.", "gc.", "analysis.", "certify.", "check_s",
              "cert_mb", "mc.", "trace.spans_dropped"),
}


def run_traced(workload, seed, seconds, smoke, golden, spec):
    plain = harness(workload, pass_args(workload, seed * 100, seconds, smoke, False))
    traced = harness(workload, pass_args(workload, seed * 100, seconds, smoke, True))
    bad = failures(workload, plain, golden, smoke) + failures(workload, traced, golden, smoke)
    for line in bad:
        print("perfbench: FAILED " + line)
    attempted = plain["attempted"] + traced["attempted"]
    wall_ms = traced["wall_s"] * 1e3
    rows = traced["layers"]
    print_table(workload, rows, wall_ms)
    for r in traced.get("search_layers", []):
        print("  search %-16s %10.1f ms: next %.1f, key %.1f, canon %.1f, props %.1f (domain ms);"
              " GC %.1f minor Mw, %d minor / %d major collections"
              % (r["search"], r["ms"], r["next_ms"], r["key_ms"], r["canon_ms"], r["props_ms"],
                 r["gc"]["gc.minor_mw"], r["gc"]["gc.minor_n"], r["gc"]["gc.major_n"]))
    values = dict(traced["per_layer"])
    values.update(traced.get("gc", {}))  # the daemon exposes no GC figures
    for k in ("check_s", "cert_mb", "rtt_p50_ms", "rtt_p99_ms", "verify_p99_ms",
              "rtt_samples", "loadgen.cpu_frac", "loadgen.in_flight"):
        if k in traced:
            values[k] = traced[k]
    values["layers.unattributed_ms"] = next(
        r["ms"] for r in rows if r["row"] == "layers.unattributed")
    values["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    values["fail_ratio"] = len(bad) / attempted
    count_check(workload, values, golden, spec, smoke)
    names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in names if n not in values and not n.startswith(NOT_MEASURED[workload])]
    stale = [n for n in names if n in values and n.startswith(NOT_MEASURED[workload])]
    if missing:
        die("the traced %s pass did not emit %s" % (workload, ", ".join(missing)))
    if stale:
        die("the traced %s pass emits %s, listed as not measured" % (workload, ", ".join(stale)))
    print("perfbench: per-layer metrics measured: " + " ".join(n for n in names if n in values))
    metrics = {n: {"value": values.get(n, 0), "unit": m["unit"]}
               for n, m in zip(names, spec["per_layer"])}
    return attempted, len(bad), metrics


def record_golden(spec):
    """Records the expected answers from the current tree: verdict
    fingerprints, the lint gate's counts, search outcomes, and every count
    of two traced passes (seeds 0 and 1) as a [lo, hi] range."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    golden = {
        "eval": "red in PERFNk : times(s^a(0), s^b(0)) has normal form s^(a*b)(0); "
                "the serve generator checks every red against it",
        "verdicts": {},
        "counts": {},
    }
    for workload in ("campaign", "assure", "attack"):
        plain = harness(workload, ["--seed", "0"])
        smoke = harness(workload, ["--seed", "0", "--smoke"])
        if workload == "campaign":
            golden["verdicts"] = plain["verdicts"]
        if workload == "assure":
            golden["lint"] = plain["lint"]
            golden["smoke_lint"] = smoke["lint"]
        if workload == "attack":
            golden["searches"] = {k: search_key(v) for k, v in sorted(plain["searches"].items())}
            golden["smoke_searches"] = {k: search_key(v) for k, v in sorted(smoke["searches"].items())}
        counts = {}
        for seed in ("0", "1"):
            traced = harness(workload, ["--seed", seed, "--trace"])
            for k, v in traced["per_layer"].items():
                if units.get(k) == "count":
                    lo, hi = counts.get(k, (v, v))
                    counts[k] = (min(lo, v), max(hi, v))
        golden["counts"][workload] = {k: list(v) for k, v in sorted(counts.items())}
        print("perfbench: recorded %s" % workload, file=sys.stderr)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    a = ap.parse_args()
    spec = load_spec()
    build()
    if a.record_golden:
        record_golden(spec)
        return
    if a.workload is None:
        die("--workload is required")
    golden = load_golden()
    run = run_traced if a.trace else run_untraced
    attempted, failed, metrics = run(a.workload, a.seed, a.seconds, a.smoke, golden, spec)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
