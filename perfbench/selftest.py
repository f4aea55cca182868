#!/usr/bin/env python3
"""Self-test of the engine benchmark, in tiny mode (1 MB corpora, 36
requests per run).

Usage (from the repository root):
    python3 perfbench/selftest.py

Asserts that
  1. every workload prints every metric of BENCHMARK.json, with its unit,
     untraced (end-to-end) and traced (per-layer), and answers correctly;
  2. the request stream, corpus and answers are a pure function of the
     seed: two runs with one seed write identical request/digest files,
     and another seed gives another stream;
  3. fulltext_packed answers on the packed file exactly as on an
     in-memory Build of the same documents, request for request;
  4. section6_mem answers on a pool of four threads exactly as on one
     thread, request for request (its traced run replays on the pool).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ["section6_mem", "fulltext_packed"]


def run(workload, seed, trace, digest_file):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", "--digest-out", digest_file]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rows(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f]


def main():
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)

    digests = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = os.path.join(OUT, f"{workload}-t{trace}.tsv")
            result = run(workload, 7, trace, path)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] == 36, result["attempted"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, got)
            digests[workload, trace] = rows(path)
        print(f"{workload}: all metrics printed, answers correct")

    # 2. Pure function of the seed.
    for workload in WORKLOADS:
        again = os.path.join(OUT, f"{workload}-again.tsv")
        run(workload, 7, 0, again)
        assert rows(again) == digests[workload, 0], workload
        other = os.path.join(OUT, f"{workload}-other.tsv")
        run(workload, 8, 0, other)
        assert ([r[1:5] for r in rows(other)] !=
                [r[1:5] for r in digests[workload, 0]]), workload
    print("request streams and answers are a pure function of the seed")

    # 3. and 4. The reference column is the digest of the same request on
    # an in-memory engine (fulltext_packed) or on four threads (a traced
    # section6_mem run); the benchmark fails a run whose answers differ.
    for key in (("fulltext_packed", 0), ("fulltext_packed", 1),
                ("section6_mem", 1)):
        for r in digests[key]:
            assert r[6] != "-" and r[5] == r[6], (key, r)
    print("packed == in-memory for fulltext_packed; "
          "4 threads == 1 thread for section6_mem")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
