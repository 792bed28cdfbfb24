#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 repobench/selftest.py [--sanitize]

Runs all three workloads in one driver process at a few hundred
operations each, on the default seed and on a held-out one, untraced
and traced. Every run must pass the driver's own checks (byte-exact
gets and pages, zero divergence after the sweep, same-seed
determinism, traced == untraced, exact span attribution), fail no
operation, and emit every metric BENCHMARK.json names, with its unit.
--sanitize builds and runs the ASan + UBSan flavour instead.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper)

ROOT = os.path.dirname(run.HERE)
SEEDS = (1, 2)  # the default seed and a held-out one


def main():
    kind = "sanitize" if "--sanitize" in sys.argv[1:] else "release"
    binary = run.build(kind)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    for seed in SEEDS:
        for trace in (0, 1):
            args = [binary, "--workload", "all", "--seed", str(seed),
                    "--seconds", "0", "--trace", str(trace),
                    "--ops", "400", "--subruns", "2"]
            out = subprocess.run(args, capture_output=True, text=True)
            tag = "seed %d trace %d" % (seed, trace)
            # The driver exits non-zero when a check or an op failed.
            if out.returncode != 0:
                failed = [l for l in out.stdout.splitlines()
                          if "CHECK FAILED" in l]
                errors.append("%s: exit %d %s\n%s" % (
                    tag, out.returncode, failed, out.stderr[-2000:]))
                continue
            if "runtime error:" in out.stderr:
                errors.append("%s: undefined behaviour\n%s" % (
                    tag, out.stderr[-2000:]))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            for w in workloads:
                for m in want:
                    got = result["metrics"].get(w + "/" + m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        errors.append("%s: %s/%s missing or unit %r != %r"
                                      % (tag, w, m["name"],
                                         got and got["unit"], m["unit"]))
            print("%s: %d metrics, attempted %d" % (
                tag, len(result["metrics"]), result["attempted"]))
    for e in errors:
        print("FAIL " + e)
    print("selftest (%s): %s" % (kind, "FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
