#!/usr/bin/env python3
"""Runtime benchmark of the threaded COP replica.

Run from the root of the repository:

    python3 perfbench/run.py --workload <null-batched|null-unbatched|kv-tcp> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (an optimised build of the runtime plus the copbench
program) into .bench_build/ and runs the checkers' self-test. Then it sets
up CLUSTERS clusters one after another, each in a fresh copbench process
measured for an equal share of --seconds, and reports the median over
them of every metric. Prints every metric by name and unit, and as the
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "copbench")
WORKLOADS = ("null-batched", "null-unbatched", "kv-tcp")
CLUSTERS = 5
# copbench bounds each of its waits (set-up 20 s, drain 10 s, quiescence
# 10 s), so a process overrunning this has hung outright.
CLUSTER_TIMEOUT_S = 60

END_TO_END = {
    "throughput_ops": "ops/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "cpu_us_per_op": "us/op",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "core.pillar.cpu_us_per_op": "us/op",
    "core.pillar.busy": "fraction",
    "core.pillar.wakeups_per_op": "1/op",
    "core.exec.cpu_us_per_op": "us/op",
    "core.exec.busy": "fraction",
    "core.exec.wakeups_per_op": "1/op",
    "core.statex.cpu_us_per_op": "us/op",
    "client.cpu_us_per_op": "us/op",
    "client.wakeups_per_op": "1/op",
    "transport.cpu_us_per_op": "us/op",
    "transport.busy": "fraction",
    "transport.wakeups_per_op": "1/op",
    "crypto.mac_calls_per_op": "1/op",
    "crypto.mac_ns": "ns",
    "crypto.verify_calls_per_op": "1/op",
    "crypto.digest_calls_per_op": "1/op",
    "crypto.digest_bytes_per_op": "B/op",
    "crypto.us_per_op": "us/op",
    "protocol.requests_per_instance": "1/instance",
    "protocol.noop_share": "fraction",
    "protocol.macs_verified_per_op": "1/op",
    "protocol.verifications_skipped_per_op": "1/op",
    "protocol.request_macs_verified_per_op": "1/op",
    "protocol.over_window_deferred": "count",
    "protocol.checkpoints_stable": "count",
    "protocol.view_changes_started": "count",
    "core.exec.gap_fills_per_kop": "1/kop",
    "core.exec.noops_executed_per_kop": "1/kop",
    "core.exec.replies_offloaded_share": "fraction",
    "core.exec.reorder_slot_drops": "count",
    "core.exec.reorder_depth_peak": "count",
    "core.exec.checkpoints_per_kop": "1/kop",
    "app.execute_ns": "ns",
    "app.snapshot_ms": "ms",
    "app.snapshot_bytes_per_op": "B/op",
    "app.state_digest_us": "us",
    "transport.frames_per_op": "1/op",
    "transport.bytes_per_op": "B/op",
    "transport.rx_frames_per_wakeup": "1/wakeup",
    "transport.writev_calls_per_op": "1/op",
    "transport.ingress_shed": "count",
    "transport.queue_blocked_pushes": "count",
    "client.retransmissions_per_kop": "1/kop",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally. Returns True on success."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "copbench", "-j4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def cpu_ticks():
    """The machine's CPU time counters (user, nice, system, idle, iowait,
    irq, softirq, steal, ...) from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def counter_sum(registry, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in registry.get("counters", {}).items() if rx.fullmatch(k))


def registry_metrics(cluster):
    """Per-layer metrics one measured cluster's metrics registry yields."""
    start, end, ops = cluster["registry_start"], cluster["registry_end"], cluster["samples"]

    def grown(pattern):
        return counter_sum(end, pattern) - counter_sum(start, pattern)

    wakeups = grown(r"tcp\.node\d+\.loop\d+\.wakeups")
    rx_frames = grown(r"tcp\.node\d+\.lane\d+\.rx_frames")
    depth = [g["max"] for k, g in end.get("gauges", {}).items()
             if re.fullmatch(r"replica\d+\.exec\.reorder_depth", k)]
    return {
        "core.exec.reorder_depth_peak": max(depth, default=0),
        "transport.rx_frames_per_wakeup": rx_frames / wakeups if wakeups else 0.0,
        "transport.writev_calls_per_op":
            grown(r"tcp\.node\d+\.loop\d+\.writev_calls") / ops if ops else 0.0,
        "transport.ingress_shed": grown(r"tcp\.node\d+\.lane\d+\.ingress_shed"),
        "transport.queue_blocked_pushes": grown(r".*\.queue_blocked_pushes"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1
    if subprocess.run([BINARY, "--selftest"], stdout=sys.stderr).returncode != 0:
        log("perfbench: the checkers' self-test failed")
        return 1

    clusters = []
    ticks_before = cpu_ticks()
    for i in range(CLUSTERS):
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--cluster", str(i), "--seconds", str(args.seconds / CLUSTERS),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CLUSTER_TIMEOUT_S + args.seconds)
        except subprocess.TimeoutExpired:
            log("perfbench: cluster %d hung" % i)
            return 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log("perfbench: copbench exited with %d" % proc.returncode)
            return 1
        c = json.loads(lines[-1])
        clusters.append(c)
        log("perfbench: cluster %d: %s, %d attempted, %d failed, %d view changes"
            " started, %s" % (i, "correct" if c["correct"] else "INCORRECT",
                              c["attempted"], c["failed"],
                              c["view_changes_started"],
                              " ".join("%s=%.4g" % kv for kv in c["e2e"].items())))
        if c["failed"]:
            break  # a wedged cluster: report it rather than run on

    ticks = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    # Time the hypervisor gave this machine's CPUs to others: the main
    # source of run-to-run spread on a shared host.
    steal = 100.0 * ticks[7] / max(1, sum(ticks)) if len(ticks) > 7 else 0.0

    measured = [c for c in clusters if c["e2e"]]
    if args.trace:
        per_cluster = [dict(c["layers"], **registry_metrics(c)) for c in measured]
        units = PER_LAYER
    else:
        per_cluster = [c["e2e"] for c in measured]
        units = END_TO_END
    values = {name: statistics.median_low(m[name] for m in per_cluster)
              for name in units if per_cluster and name in per_cluster[0]}
    # A view change is a fault to show, not to out-vote with a median.
    view_changes = sum(c["view_changes_started"] for c in clusters)
    if args.trace:
        values["protocol.view_changes_started"] = view_changes
    missing = [name for name in units if name not in values]
    if missing:
        log("perfbench: metrics missing: %s" % ", ".join(missing))
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    attempted = sum(c["attempted"] for c in clusters)
    failed = sum(c["failed"] for c in clusters)
    print("workload %s seed %d, %s run of %d clusters: %d attempted, %d failed, "
          "%d latency samples, %d view changes started, host steal %.1f%%"
          % (args.workload, args.seed, "traced" if args.trace else "timed",
             len(clusters), attempted, failed,
             sum(c["samples"] for c in clusters), view_changes, steal))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": all(c["correct"] for c in clusters),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
