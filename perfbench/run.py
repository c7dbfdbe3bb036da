#!/usr/bin/env python3
"""fencelab benchmark: builds fencebench from the checkout's sources, runs
one workload, checks every answer and prints the metrics.

    python3 perfbench/run.py --workload bakery3-pso --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. Workloads (see README.md):

  bakery3-pso  Mutex_check.check on bakery, n=3, PSO, at j=1 and j=2
  fuzz-ra      Litmus.Test.run on the FUZZ#<fuzz-seed> program under RA
  serve-mix    a ~100-job batch through the serve daemon at window 2

With --trace 0 the run is timed and prints the end-to-end metrics; with
--trace 1 it prints the per-layer split instead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it summarises every timing with its quartiles and sample
count. Every exploration runs in a fresh process, so each pays the heap
growth a user's `fencelab check` pays.
"""

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "fencebench.exe")
WORKLOADS = ("bakery3-pso", "fuzz-ra", "serve-mix")
# A process that outlives these is killed and counted as failed.
PROCESS_TIMEOUT_S = 120
# Daemon starts per serve-mix run that time set-up on a one-job spool.
SERVE_SETUP_STARTS = 15


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("run.py: " + msg)
    sys.exit(code)


# --------------------------------------------------------------------------
# Build


def build():
    """Build fencebench from the checkout's sources with dune."""
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        die("not a fencelab checkout (missing %s); run from its root" % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/fencebench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def fencebench(*args, timeout=PROCESS_TIMEOUT_S):
    """Run one fencebench mode; its last stdout line is a JSON record.
    Returns the record, or None if the process failed."""
    try:
        r = subprocess.run([EXE, *map(str, args)], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("fencebench %s: timed out" % " ".join(map(str, args)))
        return None
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("fencebench %s: exit %d\n%s" % (" ".join(map(str, args)), r.returncode, r.stderr[-2000:]))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("fencebench %s: bad record %r" % (" ".join(map(str, args)), lines[-1][:200]))
        return None


# --------------------------------------------------------------------------
# Statistics


def summary(values):
    """Median, quartiles and sample count of one timing."""
    xs = sorted(values)
    if len(xs) >= 2:
        q1, q2, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q2 = q3 = xs[0]
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def p90(values):
    """90th percentile (Python's exclusive method; the maximum for fewer
    than ten samples)."""
    xs = sorted(values)
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10)[8]


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            log("run.py: WRONG: " + what)
        return ok


# --------------------------------------------------------------------------
# Exploration workloads


def explorations(workload, seed, seconds, fuzz_seed, tally):
    """Run j=1 and j=2 explorations, each a fresh process, in rounds of
    two j=1 runs and one j=2 run in seeded order, while another round
    fits in `seconds` (at least three rounds). j=1 gets more samples:
    its rate is the headline metric and the noisier one."""
    rng = random.Random(seed)
    runs = {1: [], 2: []}
    start = time.monotonic()
    round_s = 0.0
    while len(runs[2]) < 3 or time.monotonic() - start + round_s < seconds:
        round_start = time.monotonic()
        order = [1, 1, 2]
        rng.shuffle(order)
        for jobs in order:
            rec = fencebench("explore", workload, jobs, fuzz_seed)
            if not tally.check(rec is not None and rec["correct"],
                               "%s j=%d: %s" % (workload, jobs, rec)):
                continue
            runs[jobs].append(rec)
        round_s = time.monotonic() - round_start
        if tally.failed > 3:
            break
    # A j=1 exploration is deterministic: every repeat claims the same states.
    counts = {(r["states"], r["transitions"], r["truncated"]) for r in runs[1]}
    tally.check(len(counts) <= 1, "%s: j=1 counts differ across repeats: %s" % (workload, counts))
    if not runs[1] or not runs[2]:
        return None, {}
    wall1 = [r["wall_s"] for r in runs[1]]
    wall2 = [r["wall_s"] for r in runs[2]]
    rate1 = [r["states"] / r["wall_s"] for r in runs[1]]
    rate2 = [r["states"] / r["wall_s"] for r in runs[2]]
    setup = [r["setup_s"] for r in runs[1] + runs[2]]
    metrics = {
        "states_per_s_j1": statistics.median(rate1),
        "states_per_s_j2": statistics.median(rate2),
        "alloc_words_per_state_j1": statistics.median(
            r["minor_words"] / r["states"] for r in runs[1]),
        "peak_heap_mb": statistics.median(r["top_heap_mb"] for r in runs[1]),
        "setup_s": statistics.median(setup),
        "makespan_s": statistics.median(wall2),
        "job_p50_s": statistics.median(wall1),
        "job_p90_s": p90(wall1),
    }
    detail = {
        "wall_s_j1": summary(wall1),
        "wall_s_j2": summary(wall2),
        "states_per_s_j1": summary(rate1),
        "states_per_s_j2": summary(rate2),
        "setup_s": summary(setup),
        "states": runs[1][0]["states"],
        "transitions": runs[1][0]["transitions"],
        "truncated": runs[1][0]["truncated"],
    }
    return metrics, detail


# --------------------------------------------------------------------------
# serve-mix

LITMUS_TESTS = ["SB", "SB+fences", "MP", "MP+fence", "2+2W", "LB", "IRIW",
                "SB+rmw", "WRC", "CoRR"]
ALL_MODELS = ["SC", "TSO", "PSO", "RMO", "RA", "SRA"]
CHECK_LOCKS = ["bakery", "tournament", "ttas", "clh", "anderson", "filter", "peterson"]
# RMO is left out of the lock checks: every lock here gives PSO's counts on it.
CHECK_MODELS = ["SC", "TSO", "PSO", "RA", "SRA"]


def serve_jobs():
    """The serve-mix batch. Job ids are <kind>.<n>. The long jobs lead;
    the short ones follow in one fixed mixed order. The order is not
    drawn from --seed: which short jobs queue behind the long ones moves
    job_p50_s by up to a third from one order to another."""
    long_jobs = [
        {"job": "check", "id": "check_ckpt.0", "lock": "bakery", "model": "TSO", "nprocs": 3},
        {"job": "check", "id": "check_por.0", "lock": "bakery", "model": "PSO", "nprocs": 3, "por": True},
        {"job": "check", "id": "check_por.1", "lock": "tournament", "model": "PSO", "nprocs": 3, "por": True},
        {"job": "synth", "id": "synth.0", "family": "bakery", "model": "PSO", "nprocs": 2},
        {"job": "synth", "id": "synth.1", "family": "peterson", "model": "PSO", "nprocs": 2},
        {"job": "atlas", "id": "atlas.0", "model": "PSO", "nprocs": [2, 4, 8, 16, 32, 64],
         "out": os.path.abspath(os.path.join(WORK_DIR, "atlas.0.json"))},
        {"job": "fuzz", "id": "fuzz.0", "seed": 29, "count": 10},
    ]
    short = []
    for t in LITMUS_TESTS:
        for m in ALL_MODELS:
            short.append({"job": "litmus", "test": t, "model": m})
    for lock in CHECK_LOCKS:
        for m in CHECK_MODELS:
            short.append({"job": "check", "lock": lock, "model": m, "nprocs": 2})
    random.Random(0).shuffle(short)
    n = {}
    for j in short:
        k = j["job"]
        j["id"] = "%s.%d" % (k, n.get(k, 0))
        n[k] = n.get(k, 0) + 1
    return long_jobs + short


def job_key(job):
    """A job's spec without its id and output path, as one string."""
    return json.dumps({k: v for k, v in job.items() if k not in ("id", "out")},
                      sort_keys=True, separators=(",", ":"))


def outcome_fields(done):
    """A job_done record without the fields that name this run."""
    return {k: v for k, v in done.items() if k not in ("type", "job_id", "out")}


def load_expected():
    """Every serve-mix job's pinned job_done record: the verdicts and
    counts of the batch at the commit that defined the benchmark."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "serve_expected.json")) as f:
        return {job_key(e["job"]): e["done"] for e in json.load(f)}


def fresh_spool(name, jobs):
    spool = os.path.abspath(os.path.join(WORK_DIR, name))
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(spool)
    with open(os.path.join(spool, "batch.job"), "w") as f:
        for j in jobs:
            f.write(json.dumps(j, separators=(",", ":")) + "\n")
    return spool


def serve_batch(spool):
    """Start the daemon on a spool and read its stats stream from outside,
    stamping each record on arrival. Returns (records with arrival times
    in seconds since the daemon was started, the daemon's own record)."""
    fifo = os.path.join(spool, "stats.fifo")
    os.mkfifo(fifo)
    # Opened read-write so the open never blocks and the pipe never reads
    # end-of-file, whether or not the daemon has opened its end yet.
    fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    out_path = os.path.join(spool, "daemon.out")
    records, buf = [], b""
    with open(out_path, "w") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([EXE, "serve", spool, fifo], stdout=out,
                                stderr=subprocess.DEVNULL)
        deadline = t0 + PROCESS_TIMEOUT_S
        try:
            while True:
                done = proc.poll() is not None
                ready, _, _ = select.select([fd], [], [], 0.05)
                if ready:
                    try:
                        chunk = os.read(fd, 1 << 16)
                    except BlockingIOError:
                        chunk = b""
                    now = time.monotonic() - t0
                    buf += chunk
                    *lines, buf = buf.split(b"\n")
                    for line in filter(bytes.strip, lines):
                        try:
                            records.append((now, json.loads(line)))
                        except ValueError:
                            log("run.py: unreadable stats record %r" % line[:200])
                elif done:
                    break
                if time.monotonic() > deadline:
                    log("run.py: daemon timed out")
                    break
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            os.close(fd)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    daemon = None
    if proc.returncode == 0 and lines:
        try:
            daemon = json.loads(lines[-1])
        except ValueError:
            pass
    return records, daemon


def serve_mix(seconds, tally):
    # Set-up: daemon start until its first ack, on a one-job spool.
    start = time.monotonic()
    probe = [{"job": "litmus", "id": "litmus.0", "test": "SB", "model": "SC"}]
    setup = []
    for i in range(SERVE_SETUP_STARTS):
        records, daemon = serve_batch(fresh_spool("setup-%d" % i, probe))
        acks = [t for t, r in records if r.get("type") == "ack"]
        if tally.check(daemon is not None and daemon["failed"] == 0 and acks,
                       "serve set-up start %d" % i):
            setup.append(acks[0])
    jobs = serve_jobs()
    expected = load_expected()
    batches = []
    batch_s = 0.0
    # Batches while another one fits in `seconds`, the set-up starts included.
    while not batches or time.monotonic() - start + batch_s < seconds:
        batch_start = time.monotonic()
        spool = fresh_spool("batch-%d" % len(batches), jobs)
        records, daemon = serve_batch(spool)
        done = {r["job_id"]: (t, r) for t, r in records if r.get("type") == "job_done"}
        for j in jobs:
            t_r = done.get(j["id"])
            got = t_r and outcome_fields(t_r[1])
            tally.check(got is not None and got.get("ok") is True
                        and got == expected.get(job_key(j)),
                        "serve job %s: %s, expected %s" % (j["id"], got, expected.get(job_key(j))))
        totals = [r for _, r in records if r.get("type") == "serve_done"]
        tally.check(daemon is not None and totals and
                    (totals[0]["accepted"], totals[0]["rejected"], totals[0]["failed"])
                    == (len(jobs), 0, 0),
                    "serve totals: %s" % (totals,))
        acks = [t for t, r in records if r.get("type") == "ack"]
        if acks:
            setup.append(acks[0])
        if daemon is None or len(done) != len(jobs):
            break
        batches.append({
            "job_s": [t for t, _ in done.values()],
            "makespan_s": max(t for t, _ in done.values()),
            "states": sum(r.get("states", 0) for _, r in done.values()),
            "minor_words": daemon["minor_words"],
            "top_heap_mb": daemon["top_heap_mb"],
        })
        shutil.rmtree(spool, ignore_errors=True)
        batch_s = time.monotonic() - batch_start
    if not batches or not setup:
        return None, {}
    job_s = [t for b in batches for t in b["job_s"]]
    makespan = [b["makespan_s"] for b in batches]
    rate2 = [b["states"] / b["makespan_s"] for b in batches]
    metrics = {
        # Two worker domains: per-domain and whole-pool claimed-state rates.
        "states_per_s_j1": statistics.median(r / 2 for r in rate2),
        "states_per_s_j2": statistics.median(rate2),
        "alloc_words_per_state_j1": statistics.median(
            b["minor_words"] / b["states"] for b in batches),
        "peak_heap_mb": statistics.median(b["top_heap_mb"] for b in batches),
        "setup_s": statistics.median(setup),
        "makespan_s": statistics.median(makespan),
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": p90(job_s),
    }
    detail = {
        "jobs": len(jobs),
        "batches": len(batches),
        "job_s": summary(job_s),
        "makespan_s": summary(makespan),
        "setup_s": summary(setup),
        "states": batches[0]["states"],
    }
    return metrics, detail


# --------------------------------------------------------------------------
# Traced runs


def traced(workload, fuzz_seed, tally):
    if workload == "serve-mix":
        jobs = serve_jobs()
        spool = fresh_spool("trace", jobs)
        rec = fencebench("trace-serve", spool, os.path.join(spool, "batch.job"), timeout=300)
    else:
        rec = fencebench("trace", workload, fuzz_seed, timeout=300)
    if not tally.check(rec is not None and rec["correct"], "%s traced run: %s" % (workload, rec)):
        return None, {}
    metrics = rec.pop("metrics")
    return metrics, rec


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fuzz-seed", type=int, default=29,
                    help="seed of the fuzz-ra program (default 29, FUZZ#29)")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    build()

    tally = Tally()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    try:
        st = fencebench("selftest")
        tally.check(st is not None and st["correct"], "two-domain allocation count: %s" % st)
        if args.trace:
            metrics, detail = traced(args.workload, args.fuzz_seed, tally)
            wanted = spec["per_layer"]
        elif args.workload == "serve-mix":
            metrics, detail = serve_mix(args.seconds, tally)
            wanted = spec["end_to_end"]
        else:
            metrics, detail = explorations(args.workload, args.seed, args.seconds,
                                           args.fuzz_seed, tally)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if metrics is None:
        die("%s: no measurement survived; problems: %s" % (args.workload, tally.problems[:5]), 1)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("metrics not measured: %s" % ", ".join(missing), 1)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpus": st and st["cpus"], "failed_share": tally.failed / tally.attempted,
        "problems": tally.problems[:10], "detail": detail,
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
