#!/usr/bin/env python3
"""Product-line benchmark of FAME-DBMS: builds the workload executables from
the repository's sources, runs one workload, checks its outputs and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload db-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

With --trace 0 the result carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, and the run
also writes a Chrome-trace file and a per-layer table under
.bench_build/perfbench/out/. The last line of standard output is the result
as one JSON object.
"""
import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
RUN_TIMEOUT_S = 170

WORKLOADS = {
    "fig1b-point": "pb_fig1b_point",
    "db-mixed": "pb_db_mixed",
    "logger-append": "pb_logger_append",
    "mvcc-versioned": "pb_mvcc_versioned",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the workload executables (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no src/CMakeLists.txt next to perfbench/; "
            "run from a full checkout of the repository")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        if subprocess.call(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", str(BUILD), "-j", jobs,
                            "--target", *WORKLOADS.values()],
                           stdout=sys.stderr) == 0


def text_kib(exe):
    """Size of the ELF .text section of `exe`, in KiB."""
    data = exe.read_bytes()
    if data[:4] != b"\x7fELF" or data[4] != 2:
        raise ValueError(f"{exe} is not a 64-bit ELF file")
    shoff, = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", data, 0x3A)

    def section(i):
        base = shoff + i * shentsize
        name, = struct.unpack_from("<I", data, base)
        offset, size = struct.unpack_from("<QQ", data, base + 0x18)
        return name, offset, size

    _, strtab, _ = section(shstrndx)
    for i in range(shnum):
        name, _, size = section(i)
        end = data.index(b"\0", strtab + name)
        if data[strtab + name:end] == b".text":
            return size / 1024.0
    raise ValueError(f"{exe} has no .text section")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    exe = BUILD / WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(OUT)]
    # The client is single-threaded: pinning it to one CPU keeps scheduler
    # migrations, and the cache refills they cost, out of the tail latencies.
    cpu = max(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {args.workload} exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        metrics["text_kib"] = {"value": text_kib(exe), "unit": "KiB"}

    # Human-readable table: every metric the run produced, with its unit.
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")

    wanted = declared_metrics(args.trace)
    missing = [n for n in wanted if n not in metrics]
    if missing:
        log(f"perfbench: metrics not produced: {', '.join(missing)}")
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in wanted},
    }))
    return 0


def run_selftests():
    ok = True
    OUT.mkdir(parents=True, exist_ok=True)
    for target in WORKLOADS.values():
        code = subprocess.call([str(BUILD / target), "--selftest",
                                "--dir", str(OUT)], timeout=RUN_TIMEOUT_S)
        ok = ok and code == 0
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the harness and workload self-tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 2
    return run_selftests() if args.selftest else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
