#!/usr/bin/env bash
#
# CI gate: static analysis first (bluedbm-lint, the hardened lint
# build and standalone-header compilation -- cheap failures
# short-circuit the expensive builds), then build the release and
# sanitizer presets and run the full test suite on both (any
# ASan/UBSan finding fails the run; the svc_kv_smoke test runs every
# KV scenario row at smoke size, the paper test every paper claim,
# and each example its own verification line). Then the repo
# benchmark's self-test, and the three binaries that regenerate the
# tracked BENCH_kernel.json / BENCH_kv.json / BENCH_paper.json and
# gate them through their exit status; BENCH_kv.json and
# BENCH_paper.json, all simulated, must also come back
# byte-identical.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "=== static analysis: bluedbm-lint ==="
# Determinism, hot-path allocation discipline, [[nodiscard]] surface
# and include hygiene; zero unsuppressed findings or the run stops
# here. docs/static_analysis.md has the rule catalog.
python3 tools/lint/bluedbm_lint.py

echo "=== static analysis: lint self-tests ==="
# Both directions of the gate: every rule fires on its known-bad
# fixture and stays quiet on known-good code.
python3 tools/lint/test_lint.py

echo "=== static analysis: hardened build + standalone headers ==="
# -Wconversion -Wshadow -Wextra-semi -Wnon-virtual-dtor
# -Wdouble-promotion promoted to errors across src/, plus one
# generated TU per public header proving each compiles standalone.
cmake --preset lint
cmake --build --preset lint -j"${JOBS}"

echo "=== release: configure + build ==="
cmake --preset release
cmake --build --preset release -j"${JOBS}"

echo "=== release: ctest ==="
ctest --preset release -j"${JOBS}"

echo "=== sanitize (ASan+UBSan): configure + build ==="
cmake --preset sanitize
cmake --build --preset sanitize -j"${JOBS}"

echo "=== sanitize: ctest ==="
# halt_on_error turns any UBSan diagnostic into a test failure
# (ASan aborts on its own); leak detection stays on by default.
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --preset sanitize -j"${JOBS}"

echo "=== exported trace parses as strict JSON ==="
# svc_kv_smoke exports its traced row for Perfetto; svc_kv itself
# checks the span trees, this checks the artifact loads.
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
    build-sanitize/svc_kv_smoke_trace.json

echo "=== repo benchmark self-test (release) ==="
python3 repobench/selftest.py

echo "=== perf binaries: regenerate + gate BENCH_kernel / BENCH_kv ==="
./build/ablation_kernel
# Every BENCH_kv.json field is simulated (seeded), so the tracked
# file must regenerate byte for byte, as BENCH_paper.json does below.
cp BENCH_kv.json build/BENCH_kv.json.tracked
./build/svc_kv
cmp BENCH_kv.json build/BENCH_kv.json.tracked || {
    echo "kv gate: BENCH_kv.json changed" >&2
    exit 1
}

echo "=== paper claims: regenerate + gate BENCH_paper.json ==="
# The exit status gates every claim against the paper. The wear
# model defaults OFF (NandArray::setWearModel unarmed), and every
# value is simulated or restated, so the tracked file must also
# regenerate byte for byte.
cp BENCH_paper.json build/BENCH_paper.json.tracked
./build/paper
cmp BENCH_paper.json build/BENCH_paper.json.tracked || {
    echo "paper gate: BENCH_paper.json changed" >&2
    exit 1
}

echo "=== CI OK ==="
