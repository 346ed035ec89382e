# Convenience targets for the DRS reproduction.

PYTHON ?= python

.PHONY: install test lint smoke bench experiments experiments-quick quick-engine quick-estimators quick-obs perf-smoke examples clean

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
	@# benchmarks/e2e is the one benchmark: no second timing suite beside it
	@test -z "$$(ls benchmarks/bench_*.py benchmarks/conftest.py benchmarks/BENCH_*.json 2>/dev/null)"
	@# package __init__s re-export lazily: none imports a repro module eagerly
	@! grep -nE '^(from|import) repro\.' $$(find src/repro -name __init__.py)

# end-to-end check: a quick experiment must emit its observability artifacts,
# a switched scenario must publish the bits its own report prints, a
# desval-style replicate in the scenario grammar (warm-up boundary, exact-f
# step, post-run ping) must report its ping, every routing regime the
# ROUTING_PROTOCOLS table names must run one scenario side by side, and a
# malformed option (a scenario's, or a NaN --target-ci) must end in one
# error line and exit 2, not a traceback
# (the files are written here, not shipped: scenariosuite runs every file
# under examples/scenarios)
smoke:
	rm -rf /tmp/drs-smoke
	$(PYTHON) -m repro run --quick figure2 --out /tmp/drs-smoke
	test -f /tmp/drs-smoke/figure2.manifest.json
	test -f /tmp/drs-smoke/figure2.metrics.jsonl
	test -f /tmp/drs-smoke/figure2.metrics.prom
	grep -q drs_probe_rtt_seconds /tmp/drs-smoke/figure2.metrics.jsonl
	grep -q drs_failover_latency_seconds /tmp/drs-smoke/figure2.metrics.jsonl
	$(PYTHON) -m repro obs /tmp/drs-smoke
	$(PYTHON) -c "import json; s = json.load(open('examples/scenarios/nic_failure_drs.json')); \
		s.update(name='nic-failure-switched', fabric='switch'); \
		json.dump(s, open('/tmp/drs-smoke/nic_failure_switched.json', 'w'))"
	$(PYTHON) -m repro sim /tmp/drs-smoke/nic_failure_switched.json \
		--metrics-out /tmp/drs-smoke/switched > /tmp/drs-smoke/switched.txt
	grep -q "wire bits carried *1.29443e+07" /tmp/drs-smoke/switched.txt
	grep -q '"net_bits_carried_total", "kind": "counter", "value": 12944272.0, "events": 18051' \
		/tmp/drs-smoke/switched/nic-failure-switched.metrics.jsonl
	$(PYTHON) -c "import json; json.dump({'name': 'exact-f-replicate', 'nodes': 8, 'duration_s': 3.0, \
		'protocol': {'kind': 'drs', 'sweep_period_s': 0.1, 'probe_timeout_s': 0.01, \
			'discovery_timeout_s': 0.02, 'path_check_period_s': 0.25}, \
		'warmup': {'until_s': 1.0, 'fail_exactly': 2}, 'ping': True, 'trace': False, 'seed': 7}, \
		open('/tmp/drs-smoke/exact_f.json', 'w'))"
	$(PYTHON) -m repro sim /tmp/drs-smoke/exact_f.json > /tmp/drs-smoke/exact_f.txt
	grep -q "faults injected *2" /tmp/drs-smoke/exact_f.txt
	grep -q "ping 0 -> 1 *reply" /tmp/drs-smoke/exact_f.txt
	$(PYTHON) -c "import json; from repro.scenario.spec import ROUTING_PROTOCOLS; \
		[json.dump({'name': f'regime-{kind}', 'nodes': 4, 'duration_s': 3.0, 'protocol': {'kind': kind}, \
			'workload': {'kind': 'stream'}, 'faults': [{'at': 1.0, 'fail': 'nic1.0'}]}, \
			open(f'/tmp/drs-smoke/regime_{kind}.json', 'w')) for kind in ROUTING_PROTOCOLS]"
	$(PYTHON) -m repro sim --compare /tmp/drs-smoke/regime_*.json > /tmp/drs-smoke/regimes.txt
	$(PYTHON) -c "from repro.scenario.spec import ROUTING_PROTOCOLS; \
		out = open('/tmp/drs-smoke/regimes.txt').read(); \
		assert all(f'regime-{kind}' in out for kind in ROUTING_PROTOCOLS), out"
	echo '{"name": "malformed", "nodes": 4, "duration_s": 3.0, "protocol": {"kind": "reactive", "timeout_s": -1}}' \
		> /tmp/drs-smoke/malformed.json
	$(PYTHON) -m repro sim /tmp/drs-smoke/malformed.json 2> /tmp/drs-smoke/malformed.err; test $$? -eq 2
	test $$(wc -l < /tmp/drs-smoke/malformed.err) -eq 1
	! grep -q Traceback /tmp/drs-smoke/malformed.err
	$(PYTHON) -m repro run --quick figure2 --target-ci nan --out /tmp/drs-smoke/nan 2> /tmp/drs-smoke/nan.err; \
		test $$? -eq 2 && test $$(grep -c error: /tmp/drs-smoke/nan.err) -eq 1 && ! grep -q Traceback /tmp/drs-smoke/nan.err
	@echo "smoke: OK"

bench:
	$(PYTHON) benchmarks/e2e/run.py

experiments:
	$(PYTHON) -m repro run --out results --html

experiments-quick:
	$(PYTHON) -m repro run --quick --out results

# engine smoke: one serial quick reference (figure2 + availability), then
# every other way of running the same plans must reproduce its CSVs byte
# for byte — the whole quick suite on the process pool, 33 of whose 36 CSVs
# must also match the digests *serial* runs recorded (the twelve DES-backed
# ones before the event core was rebuilt, the fourteen estimator and seven
# topologysweep ones `make quick-estimators` checks serially: pool == serial
# for every pinned experiment); figure2 over the loopback coordinator + 2 spawned
# workers (recording per-host attribution and worker.join events); the same
# with a worker SIGKILLed mid-chunk (DRS_WORKER_CRASH_AFTER_CHUNKS, its jobs
# stolen and re-executed); and two runs SIGKILLed mid-checkpoint
# (DRS_ENGINE_CRASH_AFTER), then --resume'd — one serial (a commit is one
# record) and one over the coordinator, where record 50 falls inside a
# chunk's group commit and the file is a torn group
ENGINE_REF := /tmp/drs-engine-serial
FIGURE2_CSVS := figure2_equation1 figure2_montecarlo figure2_endpoints
same-as-serial = @for f in $(2); do cmp $(1)/$$f.csv $(ENGINE_REF)/$$f.csv || exit 1; done

quick-engine:
	rm -rf $(ENGINE_REF) results-parallel results-resume /tmp/drs-dist /tmp/drs-dist-faulty \
		/tmp/drs-dist-resume
	$(PYTHON) -m repro run --quick --out $(ENGINE_REF) --jobs 1 figure2 availability
	$(PYTHON) -m repro run --quick --out results-parallel --jobs 2
	$(call same-as-serial,results-parallel,$(FIGURE2_CSVS) availability_downtime availability_weighted)
	cd results-parallel && sha256sum -c $(CURDIR)/tests/simkit/data/des_quick.sha256 \
		$(CURDIR)/tests/topology/data/estimators_quick.sha256 \
		$(CURDIR)/tests/topology/data/topologysweep_quick.sha256
	$(PYTHON) -m repro run --quick figure2 \
		--backend distributed --jobs 2 --out /tmp/drs-dist
	$(call same-as-serial,/tmp/drs-dist,$(FIGURE2_CSVS))
	grep -q '"kind": "worker.join"' /tmp/drs-dist/figure2.flight.jsonl
	grep -q '"hosts"' /tmp/drs-dist/figure2.manifest.json
	DRS_WORKER_CRASH_AFTER_CHUNKS=1 $(PYTHON) -m repro run \
		--quick figure2 --backend distributed --jobs 2 --out /tmp/drs-dist-faulty
	$(call same-as-serial,/tmp/drs-dist-faulty,$(FIGURE2_CSVS))
	grep -q '"kind": "worker.leave"' /tmp/drs-dist-faulty/figure2.flight.jsonl
	grep -q '"kind": "job.stolen"' /tmp/drs-dist-faulty/figure2.flight.jsonl
	-DRS_ENGINE_CRASH_AFTER=50 $(PYTHON) -m repro run --quick figure2 --out results-resume
	test -f results-resume/figure2.checkpoint.jsonl
	test ! -f results-resume/figure2_montecarlo.csv
	$(PYTHON) -m repro run --resume results-resume
	$(call same-as-serial,results-resume,$(FIGURE2_CSVS))
	-DRS_ENGINE_CRASH_AFTER=50 $(PYTHON) -m repro run --quick figure2 \
		--backend distributed --jobs 2 --out /tmp/drs-dist-resume
	test $$(wc -l < /tmp/drs-dist-resume/figure2.checkpoint.jsonl) -eq 50
	test ! -f /tmp/drs-dist-resume/figure2_montecarlo.csv
	$(PYTHON) -m repro run --resume /tmp/drs-dist-resume
	$(call same-as-serial,/tmp/drs-dist-resume,$(FIGURE2_CSVS))
	@echo "quick-engine: OK (serial == pool on 33 pinned CSVs == distributed == dead-worker" \
		"== killed+resumed, serial and distributed)"

# `repro obs` smoke: every verb, end to end.
# 1. a parallel quick run must leave a tailable flight stream that exports to
#    a schema-valid Perfetto trace with one track per worker, replays in the
#    watch dashboard, and renders via obs --json
# 2. the committed golden stream (tests/obs/data, assembled from real runs
#    before the views were folded onto one reader) must print byte-identical
#    watch / precision / export-trace output through the CLI
OBS := /tmp/drs-obs
GOLDEN := tests/obs/data

quick-obs:
	rm -rf $(OBS)
	$(PYTHON) -m repro run --quick figure2 --jobs 4 --out $(OBS)
	test -f $(OBS)/figure2.flight.jsonl
	grep -q '"kind": "worker.spawn"' $(OBS)/figure2.flight.jsonl
	grep -q '"kind": "run.end"' $(OBS)/figure2.flight.jsonl
	grep -q flight_recorder $(OBS)/figure2.manifest.json
	$(PYTHON) -m repro obs export-trace $(OBS)/figure2.flight.jsonl
	$(PYTHON) -c "import json; from repro.obs.spans import validate_chrome_trace; \
		trace = json.load(open('$(OBS)/figure2.chrome.json')); \
		problems = validate_chrome_trace(trace); assert not problems, problems; \
		tracks = {e['args']['name'] for e in trace['traceEvents'] \
			if e.get('ph') == 'M' and e.get('name') == 'process_name'}; \
		workers = sum(1 for t in tracks if t.startswith('worker ')); \
		assert 'scheduler' in tracks and workers == 4, tracks"
	$(PYTHON) -m repro obs watch $(OBS)/figure2.flight.jsonl --once --no-color
	$(PYTHON) -m repro obs --json $(OBS)/figure2.flight.jsonl > /dev/null
	$(PYTHON) -m repro obs watch $(GOLDEN)/golden.flight.jsonl --once --json \
		| cmp - $(GOLDEN)/golden.watch.json
	$(PYTHON) -m repro obs precision $(GOLDEN)/golden.flight.jsonl --json \
		| cmp - $(GOLDEN)/golden.precision.json
	$(PYTHON) -m repro obs export-trace $(GOLDEN)/golden.flight.jsonl --out $(OBS)/golden.chrome.json
	cmp $(OBS)/golden.chrome.json $(GOLDEN)/golden.flight.chrome.json
	$(PYTHON) -m repro obs export-trace $(GOLDEN)/golden.trace.jsonl --out $(OBS)/golden.spans.json
	cmp $(OBS)/golden.spans.json $(GOLDEN)/golden.trace.spans.json
	@echo "quick-obs: OK (flight stream -> 4 worker tracks + scheduler, watch replays," \
		"golden views byte-identical)"

# estimator smoke: every way into the one Monte Carlo sweep loop, end to end.
# 1. quick figure2/figure3/crossovers/wholecluster/availability/ablations and
#    the whole topology catalog must reproduce, byte for byte, the CSVs
#    recorded before the sweep loops were merged (and, for topologysweep, from
#    the dense kernel the bit-packed one replaced); the catalog run must carry
#    topology metadata in the manifest and topology-labelled precision cells,
#    a --topology-restricted run must reproduce its slice of the full sweep,
#    and a --jobs 2 rerun all seven CSVs (the enumerated exact_check included)
# 2. an adaptive run (--target-ci) must emit per-cell CI columns, stats.cell
#    flight telemetry, a manifest precision block showing real trial savings,
#    and render through the precision verb and the watch panel
# 3. the same with --mc-method stratified-cv must label its precision cells
#    and flight events with the estimator method
# 4. the stats.cell events of quick figure2/figure3/crossovers/topologysweep
#    and of both adaptive runs must hash to the digests recorded before the
#    sweep loop built its cells a whole f-grid at a time
EST := /tmp/drs-estimators
DIGESTS := $(CURDIR)/tests/topology/data

quick-estimators:
	rm -rf $(EST) $(EST)-one $(EST)-pool $(EST)-ci $(EST)-cv
	$(PYTHON) -m repro run --quick --out $(EST) \
		figure2 figure3 crossovers wholecluster availability ablations topologysweep
	cd $(EST) && sha256sum -c $(DIGESTS)/estimators_quick.sha256 $(DIGESTS)/topologysweep_quick.sha256
	grep -q '"topologies"' $(EST)/topologysweep.manifest.json
	grep -q '"family": "fattree3"' $(EST)/topologysweep.manifest.json
	grep -q '"topology": "dual-hub' $(EST)/topologysweep.flight.jsonl
	$(PYTHON) -m repro obs precision $(EST)/topologysweep.flight.jsonl | grep -q multicluster
	$(PYTHON) -m repro obs watch $(EST)/topologysweep.flight.jsonl --once --no-color | grep -q 'ci: '
	$(PYTHON) -m repro run --quick topologysweep --topology khub:hubs=3 --out $(EST)-one
	cmp $(EST)/topologysweep_mc_khub_hubs3.csv $(EST)-one/topologysweep_mc_khub_hubs3.csv
	$(PYTHON) -m repro run --quick topologysweep --jobs 2 --out $(EST)-pool
	for csv in $(EST)/topologysweep_*.csv; do cmp $$csv $(EST)-pool/$$(basename $$csv) || exit 1; done
	test $$(ls $(EST)-pool/topologysweep_*.csv | wc -l) -eq 7
	$(PYTHON) -m repro run --quick figure2 --target-ci 0.01 --out $(EST)-ci
	test -f $(EST)-ci/figure2_mc_precision.csv
	head -1 $(EST)-ci/figure2_mc_precision.csv | grep -q ci_low
	grep -q '"precision"' $(EST)-ci/figure2.manifest.json
	$(PYTHON) -m repro obs precision $(EST)-ci/figure2.flight.jsonl
	$(PYTHON) -c "import json, subprocess, sys; \
		out = subprocess.run([sys.executable, '-m', 'repro', 'obs', 'precision', \
			'$(EST)-ci/figure2.manifest.json', '--json'], \
			capture_output=True, text=True, check=True).stdout; \
		report = json.loads(out); \
		assert report['cells'] and report['met_target'] == report['cells'], report; \
		assert report['trials_saved_fraction'] > 0, report"
	$(PYTHON) -m repro obs watch $(EST)-ci/figure2.flight.jsonl --once --no-color | grep 'at target'
	$(PYTHON) -m repro run --quick figure2 --target-ci 0.01 \
		--mc-method stratified-cv --out $(EST)-cv
	head -1 $(EST)-cv/figure2_mc_precision.csv | grep -q method
	grep -q 'stratified-cv' $(EST)-cv/figure2_mc_precision.csv
	grep -q '"method": "stratified-cv"' $(EST)-cv/figure2.flight.jsonl
	grep -q '"mc_method": "stratified-cv"' $(EST)-cv/figure2.manifest.json
	$(PYTHON) -m repro obs precision $(EST)-cv/figure2.flight.jsonl > /dev/null
	$(PYTHON) -m repro obs watch $(EST)-cv/figure2.flight.jsonl --once --no-color \
		| grep -q 'stratified-cv'
	$(PYTHON) tests/obs/stats_cell_digest.py figure2=$(EST)/figure2.flight.jsonl \
		figure3=$(EST)/figure3.flight.jsonl crossovers=$(EST)/crossovers.flight.jsonl \
		topologysweep=$(EST)/topologysweep.flight.jsonl \
		figure2-ci-crn=$(EST)-ci/figure2.flight.jsonl \
		figure2-ci-stratified-cv=$(EST)-cv/figure2.flight.jsonl \
		| diff - tests/obs/data/stats_cell_quick.sha256
	@echo "quick-estimators: OK (pinned CSVs, pool == serial on all seven topologysweep CSVs," \
		"adaptive + stratified-cv telemetry, pinned stats.cell events)"

# end-to-end benchmark smoke: every workload of benchmarks/e2e once at
# reduced size, all output checks on, plus the traced per-layer replays, which
# read spec.run's module, its build_plan, each job's fn and the wire codecs
# (~25 s); the harness self-tests ride along
perf-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke --trace
	$(PYTHON) -m pytest benchmarks/e2e/tests -q
	@echo "perf-smoke: OK (all workloads and their traced replays ran, output checks passed)"

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf results results-parallel results-resume .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
