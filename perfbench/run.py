#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of the repository.  The first form builds the
benchmark and the `oglaf` binary with dune, runs one workload and
passes its output through; the last line is the JSON result.  The
second form is the benchmark's own smoke check: a short run of every
workload in BENCHMARK.json, traced and untraced, that fails if a
metric or unit is missing, if a traced run did not measure a per-layer
metric listed for it in MEASURED (or measured one not listed), or if
any operation failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")

POOL = ["pool.regions_per_op", "pool.inline_per_op", "pool.tasks_per_op",
        "pool.region_us", "pool.idle_share"]
KERNEL = POOL + [
    "pool.entry_us.static", "pool.entry_us.dynamic",
    "interp.make_state_us", "interp.exec_ms", "interp.allocations_per_op",
    "bytecode.bail_share", "bytecode.bail_sites",
    "fortran.parse_us", "lift.autopar_ms", "trace.unattributed_share"]

# The per-layer metrics each workload's traced run measures; the
# others read 0 and are listed in the run line's "not_measured".
MEASURED = {
    "sarb_entropy": KERNEL + ["sarb.serial_ref_ms", "sarb.speedup_vs_serial"],
    "fun3d_jacobian": KERNEL + ["fun3d.serial_ref_ms", "fun3d.speedup_vs_serial"],
    "serve_churn": [
        "listener.overhead_us", "listener.server_exec_ms", "listener.shed",
        "progcache.hit_share", "progcache.misses", "progcache.evictions",
        "progcache.compile_us", "builder.gpi_us", "analysis.autopar_us",
        "codegen.emit_us", "codegen.source_bytes", "fortran.parse_us"],
    "autopar_tune": POOL + [
        "fortran.parse_us", "lift.autopar_ms", "lift.verify_ms",
        "lift.kernel_ms", "lift.annotated_loops", "lift.configs_verified",
        "tune.search_ms", "tune.variants_verified",
        "trace.unattributed_share"],
}


# Workloads whose processes all run on one CPU.  serve_churn is a
# ping-pong between the client and the server's reader and executor:
# on two vCPUs of a shared host, every hop can wait for the other vCPU
# to be woken or scheduled; on one CPU a hop is a context switch.
PINNED = {"serve_churn"}


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark and the server binary; False on failure."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("not at the root of the repository (no dune-project or lib/)")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "-j", "2",
           "./perfbench/main.exe", "./bin/oglaf.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if r.returncode != 0:
        log("build failed with exit code %d" % r.returncode)
        return False
    return True


def commit_id():
    """The checked-out commit, or "none" outside a git work tree."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """MD5 over the sources the benchmark measures, so runs of a
    checkout that is not a git work tree still name their code."""
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench", "examples"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace, capture=False):
    """Run one workload; returns (exit code, stdout text or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit_id(), "--source-digest", source_digest()]
    # setup_s counts from here: the same clock as the benchmark's
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    # own process group, so a timeout also stops the server it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True,
                            preexec_fn=pin_to_one_cpu if workload in PINNED else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s (trace %d)" % (w["name"], trace)
            code, out = run_workload(w["name"], 1, 1, trace, capture=True)
            if code != 0 or not out:
                problems.append("%s: exit code %d" % (name, code))
                continue
            sys.stdout.write(out)
            result = json.loads(out.strip().splitlines()[-1])
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (name, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s has unit %r, expected %r"
                                    % (name, m["name"], got.get("unit"), m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (name, sorted(extra)))
            if trace == 1:
                info = json.loads(out.strip().splitlines()[-2])["run"]
                got = {m["name"] for m in spec[key]} - set(info["not_measured"])
                want = set(MEASURED[w["name"]])
                for m in sorted(want - got):
                    problems.append("%s: %s not measured" % (name, m))
                for m in sorted(got - want):
                    problems.append("%s: %s measured but not expected" % (name, m))
            if result["attempted"] < 1:
                problems.append("%s: no operation attempted" % name)
            if result["failed"] > 0 or not result["correct"]:
                problems.append("%s: fail_share %d/%d, correct=%s"
                                % (name, result["failed"], result["attempted"],
                                   result["correct"]))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # a terminated run.py still stops the benchmark (see run_workload)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
