#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads: ladder-clamr-min, ladder-clamr-mixed, ladder-clamr-full,
ladder-self-min, ladder-self-full, fleet-write, warm-reads and fleet-cold;
all runs them in turn.

Run from the root of a checkout. The script builds precisiond,
precision-worker and the perfbench program (perfbench/*.go) from source into
.bench_build/, with the Go build cache, temporary files and Go's own
configuration kept there too, so nothing is written outside the checkout.
A build is skipped when no Go source changed since the last one. perfbench
prints every metric by name and unit and, as its last line, one JSON
object; this script passes it through and exits with perfbench's code.

--selftest runs every workload briefly, plain and traced, and checks that
every metric BENCHMARK.json names is printed with its unit for each of its
workloads, then corrupts one warm-reads body and checks that the output
check fails the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def source_stamp():
    """Digest of every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "precisiond")):
        fail("no repository source next to perfbench/ (go.mod, cmd/precisiond); run from a full checkout")
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    stamp_path = os.path.join(BUILD, "stamp")
    stamp = source_stamp()
    bins = [os.path.join(BIN, b) for b in ("precisiond", "precision-worker", "perfbench")]
    if all(os.path.isfile(b) for b in bins) and os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    env = go_env()
    for d in ("gocache", "tmp", "gopath", "config", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/precisiond", "./cmd/precision-worker"]),
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    with open(stamp_path, "w") as f:
        f.write(stamp)


def run_perfbench(args, capture=False):
    """Run perfbench with args; returns (exit code, stdout or None)."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BIN, "perfbench"), "-bin", BIN, "-work", work] + args
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return r.returncode, r.stdout


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


# The end-to-end figures under their workload names, printed beside the
# shared metrics.
NAMED = {
    "setup_s": "s", "failed_frac": "frac",
    "solve_s.clamr.min": "s", "solve_s.clamr.mixed": "s", "solve_s.clamr.full": "s",
    "solve_s.self.min": "s", "solve_s.self.full": "s",
    "jobs_per_s": "1/s", "job_latency_p50_ms": "ms", "job_latency_tail_ms": "ms",
    "reads_per_s": "1/s", "read_latency_p50_us": "us", "read_latency_tail_us": "us",
}


def report_lines(out):
    """Report lines as {name: (unit, rest of line)}, last one wins."""
    lines = {}
    for l in out.splitlines():
        f = l.split()
        if len(f) >= 4 and f[0] in ("e2e", "layer"):
            lines[f[1]] = (f[3], " ".join(f[4:]))
    return lines


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []
    quick = ["-seed", "7", "-seconds", "2"]

    # Every workload, plain and traced: each listed workload's metrics in
    # the JSON under its prefix and on a report line, with their units.
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        code, out = run_perfbench(["-workload", "all", "-trace", str(trace)] + quick, capture=True)
        res = last_json(out)
        if code != 0 or not res or not res["correct"]:
            problems.append("all trace=%d: exit %d, result %s" % (trace, code, res))
            continue
        sections = ("\n" + out).split("\n== ")
        for w in workloads:
            got = {k.split("/", 1)[1]: m["unit"] for k, m in res["metrics"].items() if k.startswith(w + "/")}
            if got != want:
                problems.append("%s trace=%d: metrics %s, BENCHMARK.json names %s" % (w, trace, got, want))
            section = next((s for s in sections if s.startswith(w + " ")), "")
            printed = report_lines(section)
            for name, unit in want.items():
                if printed.get(name, ("",))[0] != unit:
                    problems.append("%s trace=%d: report line for %s [%s] missing" % (w, trace, name, unit))
        if trace == 0:
            printed = report_lines(out)
            for name, unit in NAMED.items():
                if printed.get(name, ("",))[0] != unit:
                    problems.append("all: %s [%s] not printed: %s" % (name, unit, printed.get(name)))
                elif "tail" in name and "of n=" not in printed[name][1]:
                    problems.append("all: %s does not state its percentile and sample count" % name)

    # One workload alone: its JSON carries exactly the end-to-end metrics.
    code, out = run_perfbench(["-workload", workloads[0], "-trace", "0"] + quick, capture=True)
    res = last_json(out)
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if code != 0 or not res or {k: m["unit"] for k, m in res["metrics"].items()} != want:
        problems.append("%s alone: exit %d, result %s" % (workloads[0], code, res))

    code, out = run_perfbench(["-workload", "warm-reads", "-trace", "0", "-tamper-reads"] + quick, capture=True)
    res = last_json(out)
    if code == 0 or res is None or res["correct"] or "X-Payload-SHA256" not in out:
        problems.append("tampered read body was not caught: exit %d, result %s" % (code, res))

    for p in problems:
        print("SELFTEST FAIL: " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    build()
    if a.selftest:
        sys.exit(selftest())
    code, _ = run_perfbench(["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds),
                             "-trace", str(a.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
