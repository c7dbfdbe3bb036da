.PHONY: all build test bench bench-smoke mc-smoke mc-bench fuzz-smoke synth-smoke serve-smoke doc examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Regenerate every experiment table (DESIGN.md index E1..E11, MC, T1)
bench:
	dune exec bench/main.exe

# Fast agreement check of the multicore engine (also part of dune
# runtest; the binary also pins the bounded/deepening verdicts against
# the exact engine), then the CLI bounded legs: a --reorder-bound 2
# check on bakery/PSO (saturates, exact verdict) and one
# iterative-deepening run (per-level records), then the view-backend
# legs: the 2+2W litmus cell under RA (weak outcome reachable) and
# SRA (forbidden — the pinned RA/SRA separator) and a bakery check on
# each. The legs that pass --stats-out write NDJSON stats (uploaded as
# CI artifacts).
mc-smoke:
	dune exec test/mc_smoke.exe
	dune exec bin/fencelab_cli.exe -- check bakery -m PSO -n 2 \
	--reorder-bound 2 --stats-out MC_smoke_bounded.ndjson
	dune exec bin/fencelab_cli.exe -- check bakery -m PSO -n 2 \
	--reorder-bound deepen --stats-out MC_smoke_deepen.ndjson
	dune exec bin/fencelab_cli.exe -- litmus 2+2W -m RA \
	--stats-out MC_smoke_ra.ndjson
	dune exec bin/fencelab_cli.exe -- litmus 2+2W -m SRA \
	--stats-out MC_smoke_sra.ndjson
	dune exec bin/fencelab_cli.exe -- check bakery -m RA -n 2
	dune exec bin/fencelab_cli.exe -- check bakery -m SRA -n 2

# States/sec of the parallel engine by domain count; writes BENCH_mc.json
mc-bench:
	dune exec bench/main.exe -- MC

# Capped MC bench run doubling as a scaling-regression guard: sweeps
# j in {1, min(4, cpus)} and exits 1 if that j's aggregate throughput
# regresses below j=1 in the median of three alternating run pairs —
# more domains than CPUs would measure contention, not scaling, and a
# single short run is at the mercy of a neighbour's burst (on a
# single-CPU box, if mc j=1 falls below
# 0.8x the exact-key reference explorer, Explore.reference, on the
# same three workloads). It also fails if continuation sharing falls
# below 0.9x the raw closure tree on FUZZ#29 (PSO), on the same
# paired medians, and if the whole bakery n=3 PSO check at j=1 allocates
# more than 200 words per state (all domains, median of three runs).
# Never touches the committed BENCH_mc.json numbers.
# The guard runs with telemetry always-on bumps compiled in, so a
# regression in the zero-cost-when-off discipline fails here too.
# The second step exercises the observability surface end to end:
# a capped check with live progress writing BENCH_check.ndjson
# (uploaded as a CI artifact).
bench-smoke:
	BENCH_MC_CAP=200000 BENCH_MC_GUARD=1 \
	dune exec bench/main.exe -- MC
	dune exec bin/fencelab_cli.exe -- check bakery -n 3 --max-states 50000 \
	-j 1 --progress --interval 0.2 --stats-out BENCH_check.ndjson

# Deterministic differential-fuzzing smoke run: FUZZ_COUNT generated
# programs (default 250) through all seven oracles; shrunk
# counterexample artifacts land in _fuzz/ on failure
fuzz-smoke:
	dune exec bin/fencelab_cli.exe -- fuzz --count $${FUZZ_COUNT:-250} --len 7 --regs 3 --values 3

# Deterministic fence-synthesis smoke run (<30s): bakery under PSO at
# n=2 with both strategies, one stats file each (--stats-out truncates).
# The cegar run writes the frontier JSON; diffing the two NDJSON run
# records' counters prices cegar's oracle-call savings. All three files
# are CI artifacts.
synth-smoke:
	dune exec bin/fencelab_cli.exe -- synth --family bakery -m PSO -n 2 \
	--strategy cegar -j 2 --stats-out SYNTH_stats_cegar.ndjson \
	--frontier-out SYNTH_frontier.json
	dune exec bin/fencelab_cli.exe -- synth --family bakery -m PSO -n 2 \
	--strategy exhaustive -j 2 --stats-out SYNTH_stats_exhaustive.ndjson

# Serve daemon smoke (<5s): a 3-job spool — a bakery/PSO check with a
# small checkpoint interval, one litmus cell, and the full GT_f/Count
# atlas sweep over n in {2..64} — through `fencelab serve` twice.
# Leg 1 kills itself (exit 70, asserted) right after the check job's
# first checkpoint is persisted, orphaning the head c1.ckpt and its key
# log c1.ckpt.keys. A few bytes are then appended to the log, as a
# crash in the middle of a later cut's append would leave them. Leg 2
# restarts on the same spool, skips the jobs whose .done markers exist,
# cuts the torn tail off, resumes the check from the head, and must
# land the same verdict and exact state/transition counts as an
# uninterrupted run (the equivalence is pinned by test/test_serve.ml;
# here we assert the resume record, clean completion and that both
# files are gone). The two NDJSON streams and the atlas JSON are CI
# artifacts.
serve-smoke:
	rm -rf _serve && mkdir -p _serve
	printf '%s\n' \
	'{"job":"check","id":"c1","lock":"bakery","model":"PSO","nprocs":2}' \
	'{"job":"litmus","id":"l1","test":"SB","model":"TSO"}' \
	'{"job":"atlas","id":"a1","model":"PSO","nprocs":[2,4,8,16,32,64],"out":"SERVE_atlas.json"}' \
	> _serve/batch.job
	dune exec bin/fencelab_cli.exe -- serve --spool _serve --window 2 \
	--checkpoint-every 400 --crash-after-checkpoints 1 \
	--stats-out SERVE_smoke_leg1.ndjson; test $$? -eq 70
	test -f _serve/c1.ckpt && test -f _serve/c1.ckpt.keys
	printf 'torn' >> _serve/c1.ckpt.keys
	dune exec bin/fencelab_cli.exe -- serve --spool _serve --window 2 \
	--checkpoint-every 400 --stats-out SERVE_smoke_leg2.ndjson
	grep -q '"type":"resume","job_id":"c1"' SERVE_smoke_leg2.ndjson
	grep '"type":"job_done","job_id":"c1"' SERVE_smoke_leg2.ndjson \
	| grep -q '"ok":true'
	grep -q '"type":"atlas"' SERVE_atlas.json
	test ! -f _serve/c1.ckpt && test ! -f _serve/c1.ckpt.keys

doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/tradeoff_explorer.exe
	dune exec examples/weak_memory_tour.exe
	dune exec examples/counting_service.exe
	dune exec examples/lower_bound_lab.exe
	dune exec examples/fence_synthesizer.exe

clean:
	dune clean
