# Convenience targets for the DRS reproduction.

PYTHON ?= python

.PHONY: install test lint smoke bench experiments experiments-quick quick-engine quick-sweep quick-flight quick-precision quick-topology quick-variance perf-smoke bench-gate examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m compileall -q src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipped (compileall passed)"; \
	fi

# end-to-end check: a quick experiment must emit its observability artifacts
smoke:
	rm -rf /tmp/drs-smoke
	$(PYTHON) -m repro.experiments.runner --quick figure2 --out /tmp/drs-smoke
	test -f /tmp/drs-smoke/figure2.manifest.json
	test -f /tmp/drs-smoke/figure2.metrics.jsonl
	test -f /tmp/drs-smoke/figure2.metrics.prom
	grep -q drs_probe_rtt_seconds /tmp/drs-smoke/figure2.metrics.jsonl
	grep -q drs_failover_latency_seconds /tmp/drs-smoke/figure2.metrics.jsonl
	$(PYTHON) -m repro obs /tmp/drs-smoke
	@echo "smoke: OK"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro.experiments.runner --out results --html

experiments-quick:
	$(PYTHON) -m repro.experiments.runner --quick --out results

# engine smoke: one serial quick reference (figure2 + availability), then
# every other way of running the same plans must reproduce its CSVs byte
# for byte — the whole quick suite on the process pool; figure2 over the
# loopback coordinator + 2 spawned workers (recording per-host attribution
# and worker.join events); the same with a worker SIGKILLed mid-chunk
# (DRS_WORKER_CRASH_AFTER_CHUNKS, its jobs stolen and re-executed); and a
# run SIGKILLed mid-checkpoint (DRS_ENGINE_CRASH_AFTER), then --resume'd
ENGINE_REF := /tmp/drs-engine-serial
FIGURE2_CSVS := figure2_equation1 figure2_montecarlo figure2_endpoints
same-as-serial = @for f in $(2); do cmp $(1)/$$f.csv $(ENGINE_REF)/$$f.csv || exit 1; done

quick-engine:
	rm -rf $(ENGINE_REF) results-parallel results-resume /tmp/drs-dist /tmp/drs-dist-faulty
	$(PYTHON) -m repro.experiments.runner --quick --out $(ENGINE_REF) --jobs 1 figure2 availability
	$(PYTHON) -m repro.experiments.runner --quick --out results-parallel --jobs 2
	$(call same-as-serial,results-parallel,$(FIGURE2_CSVS) availability_downtime availability_weighted)
	$(PYTHON) -m repro.experiments.runner --quick figure2 \
		--backend distributed --jobs 2 --out /tmp/drs-dist
	$(call same-as-serial,/tmp/drs-dist,$(FIGURE2_CSVS))
	grep -q '"kind": "worker.join"' /tmp/drs-dist/figure2.flight.jsonl
	grep -q '"hosts"' /tmp/drs-dist/figure2.manifest.json
	DRS_WORKER_CRASH_AFTER_CHUNKS=1 $(PYTHON) -m repro.experiments.runner \
		--quick figure2 --backend distributed --jobs 2 --out /tmp/drs-dist-faulty
	$(call same-as-serial,/tmp/drs-dist-faulty,$(FIGURE2_CSVS))
	grep -q '"kind": "worker.leave"' /tmp/drs-dist-faulty/figure2.flight.jsonl
	grep -q '"kind": "job.stolen"' /tmp/drs-dist-faulty/figure2.flight.jsonl
	-DRS_ENGINE_CRASH_AFTER=50 $(PYTHON) -m repro.experiments.runner --quick figure2 --out results-resume
	test -f results-resume/figure2.checkpoint.jsonl
	test ! -f results-resume/figure2_montecarlo.csv
	$(PYTHON) -m repro.experiments.runner --resume results-resume
	$(call same-as-serial,results-resume,$(FIGURE2_CSVS))
	@echo "quick-engine: OK (serial == pool == distributed == dead-worker == killed+resumed)"

# perf smoke: the common-random-numbers sweep kernel must never be slower
# than per-point estimation (quick profile: reduced iteration count; the
# committed BENCH_bench_sweep_kernel.json holds the full-profile numbers)
quick-sweep:
	BENCH_TELEMETRY_DIR= SWEEP_BENCH_ITERATIONS=100000 \
		$(PYTHON) -m pytest benchmarks/bench_sweep_kernel.py --benchmark-only -q
	@echo "quick-sweep: OK (kernel at least as fast as per-point)"

# flight-recorder smoke: a parallel quick run must leave a tailable flight
# stream that exports to a schema-valid Perfetto trace with one track per
# worker, replays in the watch dashboard, and renders via obs --json
quick-flight:
	rm -rf /tmp/drs-flight
	$(PYTHON) -m repro.experiments.runner --quick figure2 --jobs 4 --out /tmp/drs-flight
	test -f /tmp/drs-flight/figure2.flight.jsonl
	grep -q '"kind": "worker.spawn"' /tmp/drs-flight/figure2.flight.jsonl
	grep -q '"kind": "run.end"' /tmp/drs-flight/figure2.flight.jsonl
	grep -q flight_recorder /tmp/drs-flight/figure2.manifest.json
	$(PYTHON) -m repro obs export-trace /tmp/drs-flight/figure2.flight.jsonl
	$(PYTHON) -c "import json; from repro.obs.spans import validate_chrome_trace; \
		trace = json.load(open('/tmp/drs-flight/figure2.chrome.json')); \
		problems = validate_chrome_trace(trace); assert not problems, problems; \
		tracks = {e['args']['name'] for e in trace['traceEvents'] \
			if e.get('ph') == 'M' and e.get('name') == 'process_name'}; \
		workers = sum(1 for t in tracks if t.startswith('worker ')); \
		assert 'scheduler' in tracks and workers == 4, tracks"
	$(PYTHON) -m repro obs watch /tmp/drs-flight/figure2.flight.jsonl --once --no-color
	$(PYTHON) -m repro obs --json /tmp/drs-flight/figure2.flight.jsonl > /dev/null
	@echo "quick-flight: OK (flight stream -> 4 worker tracks + scheduler, watch replays)"

# statistical-observability smoke: an adaptive quick run must emit per-cell
# CI columns, stats.cell flight telemetry, a manifest precision block that
# shows real trial savings, and render through the precision verb and the
# watch panel
quick-precision:
	rm -rf /tmp/drs-precision
	$(PYTHON) -m repro.experiments.runner --quick figure2 --target-ci 0.01 --out /tmp/drs-precision
	test -f /tmp/drs-precision/figure2_mc_precision.csv
	head -1 /tmp/drs-precision/figure2_mc_precision.csv | grep -q ci_low
	grep -q '"kind": "stats.cell"' /tmp/drs-precision/figure2.flight.jsonl
	grep -q '"precision"' /tmp/drs-precision/figure2.manifest.json
	$(PYTHON) -m repro obs precision /tmp/drs-precision/figure2.flight.jsonl
	$(PYTHON) -c "import json, subprocess, sys; \
		out = subprocess.run([sys.executable, '-m', 'repro', 'obs', 'precision', \
			'/tmp/drs-precision/figure2.manifest.json', '--json'], \
			capture_output=True, text=True, check=True).stdout; \
		report = json.loads(out); \
		assert report['cells'] and report['met_target'] == report['cells'], report; \
		assert report['trials_saved_fraction'] > 0, report"
	$(PYTHON) -m repro obs watch /tmp/drs-precision/figure2.flight.jsonl --once --no-color | grep 'at target'
	@echo "quick-precision: OK (adaptive run met its CI target with trials to spare)"

# topology smoke: the whole builder catalog must sweep end-to-end with
# topology metadata in the manifest and topology-labelled precision cells;
# a --topology-restricted run must reproduce its slice of the full sweep
# byte-for-byte; every CSV must still carry the SHA-256 recorded from the
# dense kernel the bit-packed one replaced; and the dual-hub fast path
# must stay within 1.3x of the specialized kernel (quick bench profile)
quick-topology:
	rm -rf /tmp/drs-topology /tmp/drs-topology-one
	$(PYTHON) -m repro.experiments.runner --quick topologysweep --out /tmp/drs-topology
	@for t in dual-hub khub_hubs3 fattree2 fattree3 multicluster; do \
		test -f /tmp/drs-topology/topologysweep_mc_$$t.csv || exit 1; \
	done
	grep -q '"topologies"' /tmp/drs-topology/topologysweep.manifest.json
	grep -q '"family": "fattree3"' /tmp/drs-topology/topologysweep.manifest.json
	grep -q '"topology": "dual-hub' /tmp/drs-topology/topologysweep.flight.jsonl
	$(PYTHON) -m repro obs precision /tmp/drs-topology/topologysweep.flight.jsonl | grep -q multicluster
	$(PYTHON) -m repro obs watch /tmp/drs-topology/topologysweep.flight.jsonl --once --no-color | grep -q 'ci: '
	$(PYTHON) -m repro.experiments.runner --quick topologysweep --topology khub:hubs=3 --out /tmp/drs-topology-one
	cmp /tmp/drs-topology/topologysweep_mc_khub_hubs3.csv /tmp/drs-topology-one/topologysweep_mc_khub_hubs3.csv
	cd /tmp/drs-topology && sha256sum -c $(CURDIR)/tests/topology/data/topologysweep_quick.sha256
	BENCH_TELEMETRY_DIR= TOPOLOGY_BENCH_ITERATIONS=100000 \
		$(PYTHON) -m pytest benchmarks/bench_topology_kernel.py --benchmark-only -q
	@echo "quick-topology: OK (catalog sweeps, metadata recorded, fast path within 1.3x)"

# variance-reduction smoke: a stratified-cv adaptive run must label its
# precision cells and flight events with the estimator method, render
# through the precision verb, and beat crude CRN by >= 3x trials at equal
# CI width (quick bench profile; the committed
# BENCH_bench_variance_reduction.json holds the full-profile numbers)
quick-variance:
	rm -rf /tmp/drs-variance
	$(PYTHON) -m repro.experiments.runner --quick figure2 --target-ci 0.01 \
		--mc-method stratified-cv --out /tmp/drs-variance
	head -1 /tmp/drs-variance/figure2_mc_precision.csv | grep -q method
	grep -q 'stratified-cv' /tmp/drs-variance/figure2_mc_precision.csv
	grep -q '"method": "stratified-cv"' /tmp/drs-variance/figure2.flight.jsonl
	grep -q '"mc_method": "stratified-cv"' /tmp/drs-variance/figure2.manifest.json
	$(PYTHON) -m repro obs precision /tmp/drs-variance/figure2.flight.jsonl > /dev/null
	$(PYTHON) -m repro obs watch /tmp/drs-variance/figure2.flight.jsonl --once --no-color \
		| grep -q 'stratified-cv'
	BENCH_TELEMETRY_DIR= VARIANCE_BENCH_TARGET=0.002 \
		$(PYTHON) -m pytest benchmarks/bench_variance_reduction.py --benchmark-only -q
	@echo "quick-variance: OK (stratified-cv labelled end-to-end, >= 3x fewer trials)"

# end-to-end benchmark smoke: every workload of benchmarks/e2e once at
# reduced size, all output checks on (~7 s); the harness self-tests ride along
perf-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke
	$(PYTHON) -m pytest benchmarks/e2e/tests -q
	@echo "perf-smoke: OK (all workloads ran, output checks passed)"

# perf gate: the committed snapshots vs themselves must pass; vs the +25%
# regression fixture it must exit nonzero (proving the gate actually trips)
bench-gate:
	$(PYTHON) -m repro obs bench-diff \
		benchmarks/BENCH_bench_sweep_kernel.json benchmarks/BENCH_bench_sweep_kernel.json
	$(PYTHON) -m repro obs bench-diff \
		benchmarks/BENCH_bench_topology_kernel.json benchmarks/BENCH_bench_topology_kernel.json
	$(PYTHON) -m repro obs bench-diff \
		benchmarks/BENCH_bench_variance_reduction.json \
		benchmarks/BENCH_bench_variance_reduction.json
	! $(PYTHON) -m repro obs bench-diff \
		benchmarks/BENCH_bench_sweep_kernel.json \
		tests/obs/data/BENCH_bench_sweep_kernel_regressed.json
	@echo "bench-gate: OK (clean diffs pass, injected regression trips)"

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf results results-parallel results-resume .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
