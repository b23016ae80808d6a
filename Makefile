.PHONY: all check test lint-globals bench-smoke bench-host bench-causal bench-net clean

all:
	dune build @all

test:
	dune runtest

# Tier-1 verification plus a bench smoke run, so the benchmark harness
# (and the ablation tables it prints) cannot bit-rot silently.  The
# `smoke` section exits nonzero if tracing-off getpid regresses >10%
# against the recorded baseline, if per-layer attribution stops agreeing
# with the global codec counters, or if BENCH_*.json is malformed.  The
# `faults` section is the campaign gate: a site x errno sweep over
# scribe and make where every run must classify, BENCH_faults.json must
# validate, and the seeded failing case must replay byte-identically
# from its repro bundle.  The `conformance` section is the transparency
# gate: every workload runs bare and under each declared agent stack,
# the syscall signatures must agree modulo the stack's declared delta,
# the seeded undeclared mutation must be flagged naming the first
# diverging call, the inline CPU charge must log the scheduler's Cpu
# handler timeline, and BENCH_conformance.json must validate.  The
# `scale` section is the sharding gate:
# 1/2/4/8 kernel shards over 2048 mixed-syscall processes must balance,
# reproduce byte-identically, and keep the 1-shard stacked-getpid
# baseline (DESIGN.md 3.6); BENCH_scale.json must validate.  The
# `hostspeed` section is the raw-speed gate (DESIGN.md 3.8): an
# interested depth-4 trap must stay under its minor-words ceiling
# (getpid and mixed lseek+read), envelope pooling must keep minor
# words/trap below the PR 3 wires-only baselines, the counters must
# prove every interested trap ran the emulation chain, and
# BENCH_hostspeed.json must validate.  The `causal` section
# is the observability gate (DESIGN.md 3.9): fork/signal/pipe edge
# tables and slices must reproduce byte-identically (incl. cross-shard
# signal mail over 2 shards), chrome flow events must bind balanced,
# flame folds must conserve segment self time, the live stream cursor
# must deliver every record exactly once, the watchdogs block must trip
# honestly, and all eight BENCH_*.json files must pass the one shared
# schema validator.  The `netbench` section is the socket gate: the kvd
# key-value server must serve all 1000 clients under every agent stack
# in both fork-per-connection and prefork modes with zero request
# errors, monotone latency percentiles, no stack faster than bare, and
# a byte-reproducible two-sweep matrix in BENCH_net.json.
check: all test lint-globals bench-smoke

# The wall-clock harness alone (ns/trap, traps/sec, GC deltas; writes
# BENCH_hostspeed.json).  The ns figures are machine-dependent; the
# gates are deterministic allocation counts and counter proofs.
bench-host:
	dune exec bench/main.exe -- hostspeed

# No new module-level mutable state in lib/ outside the shard handle:
# everything a kernel owns lives in the Kstate record, and the only
# allowed globals are the allowlisted installed-instance cells
# (tools/globals_allowlist.txt).
lint-globals:
	tools/lint_globals.sh

bench-smoke:
	dune exec bench/main.exe -- ablations faults conformance netbench smoke scale hostspeed causal

# The socket-workload gate alone (kvd under agent stacks, both server
# modes; writes BENCH_net.json).
bench-net:
	dune exec bench/main.exe -- netbench

# The causal-observability gate alone (edge tables, slices, flame
# folds, stream completeness, watchdogs; writes BENCH_causal.json).
bench-causal:
	dune exec bench/main.exe -- causal

clean:
	dune clean
