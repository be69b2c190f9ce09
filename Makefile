PYTHON ?= python

.PHONY: test bench bench-quick bench-suite bench-batch-smoke \
	bench-predict-smoke perf-report trace-smoke server-smoke \
	bench-server-smoke fleet-smoke bench-fleet-smoke tune-smoke \
	bench-tune-smoke pgo-smoke bench-pgo-smoke discover-smoke \
	bench-discover-smoke check-tracked-artifacts clean

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -q perfbench/tests

bench:
	$(PYTHON) benchmarks/bench_hotpath.py
	$(PYTHON) benchmarks/bench_sim_engine.py
	$(PYTHON) benchmarks/bench_batch.py
	$(PYTHON) benchmarks/bench_server.py
	$(PYTHON) benchmarks/bench_server.py --fleet 1,2,4
	$(PYTHON) benchmarks/bench_predict.py
	$(PYTHON) benchmarks/bench_tune.py
	$(PYTHON) benchmarks/bench_pgo.py
	$(PYTHON) benchmarks/bench_discover.py
	$(PYTHON) scripts/perf_report.py --check

bench-quick:
	$(PYTHON) benchmarks/bench_hotpath.py --quick
	$(PYTHON) benchmarks/bench_sim_engine.py --quick
	$(PYTHON) scripts/perf_report.py

bench-suite:
	PYTHONPATH=src $(PYTHON) scripts/bench_runner.py --quick
	$(PYTHON) scripts/perf_report.py --check

# Tiny-corpus batch smoke: the bench itself exits non-zero unless the
# warm run hits 100% and replays byte-identical output, and the report
# gate re-checks the recorded JSON.
bench-batch-smoke:
	$(PYTHON) benchmarks/bench_batch.py --quick \
		-o /tmp/pymao_bench_batch.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_batch.json

# Throughput-predictor smoke: cross-validate the static model against
# the trace simulator at --quick scales; the bench and the report gate
# both require every kernel x core in its pinned band, ranking
# agreement >= 0.75, and a >=100x prediction-over-simulation speedup.
bench-predict-smoke:
	$(PYTHON) benchmarks/bench_predict.py --quick \
		-o /tmp/pymao_bench_predict.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_predict.json

# Autotuner CLI smoke: a cold `mao tune` whose winner must beat (or
# tie) the default spec on predicted cycles, then a warm re-tune that
# must replay every pipeline prefix from the artifact cache with zero
# pass executions and an identical winner.
tune-smoke:
	$(PYTHON) scripts/tune_smoke.py

# Autotuner bench smoke: tuned-never-worse + >=3x fewer pass runs than
# exhaustive enumeration + zero-execution warm replay, on the --quick
# kernel matrix; the report gate re-checks the recorded JSON.
bench-tune-smoke:
	$(PYTHON) benchmarks/bench_tune.py --quick \
		-o /tmp/pymao_bench_tune.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_tune.json

# Profile-guided loop smoke: two `mao profile --ingest` CLI runs, a
# hot/warm guided optimize whose second run replays from the
# epoch-salted cache, a targeted epoch invalidation, and a
# /v1/profile ingest + lookup round-trip against a live server.
pgo-smoke:
	$(PYTHON) scripts/pgo_smoke.py

# Profile-guided bench smoke: on the --quick Zipf mix, PGO must beat
# the static default spec on request-weighted simulated cycles while
# executing <= 1/3 of a full corpus autotune's pass runs; the report
# gate re-checks the recorded JSON.
bench-pgo-smoke:
	$(PYTHON) benchmarks/bench_pgo.py --quick \
		-o /tmp/pymao_bench_pgo.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_pgo.json

# Discovery CLI smoke: `mao discover --seed` must recover every drawn
# parameter of the hidden blinded profile exactly, the emitted
# pymao.uarch/1 doc must predict identically via --core file, the
# profile registry must list the data-only cores, and a corrupt
# profile must die with a clean one-line error.
discover-smoke:
	$(PYTHON) scripts/discover_smoke.py

# Discovery bench smoke: two distinct seeds, every drawn parameter
# exact and the assembled model cycle-exact on the cross-check
# battery; the report gate re-checks the recorded JSON.
bench-discover-smoke:
	$(PYTHON) benchmarks/bench_discover.py --quick \
		-o /tmp/pymao_bench_discover.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_discover.json

# Fail if any compiled artifact is tracked: __pycache__ directories
# and *.pyc files must never re-enter the index.
check-tracked-artifacts:
	@bad=$$(git ls-files | grep -E '(^|/)__pycache__(/|$$)|\.py[cod]$$' \
		|| true); \
	if [ -n "$$bad" ]; then \
		echo "tracked compiled artifacts:" >&2; echo "$$bad" >&2; \
		exit 1; \
	fi
	@echo "no tracked compiled artifacts"

# Service lifecycle smoke: start `mao serve` on an ephemeral port, one
# optimize + one metrics scrape through repro.server.client, SIGTERM,
# and require a graceful-drain exit code of 0.
server-smoke:
	$(PYTHON) scripts/server_smoke.py

# Tiny-workload service bench: the harness exits non-zero unless the
# warm round hits 100%, replays byte-identical asm, and drains clean;
# the report gate re-checks the recorded JSON.
bench-server-smoke:
	$(PYTHON) benchmarks/bench_server.py --quick \
		-o /tmp/pymao_bench_server.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_server.json

# Fleet lifecycle smoke: front door + 2 workers, mixed requests,
# cache-affinity + cross-worker hits, a rolling restart fired
# mid-stream against zero-retry clients (zero dropped admitted
# requests), and a graceful SIGTERM drain of the whole fleet.
fleet-smoke:
	$(PYTHON) scripts/fleet_smoke.py

# Tiny fleet scaling sweep (1 and 2 workers): the harness exits
# non-zero on any dropped request or non-graceful drain; the report
# gate re-checks the recorded JSON (the 1.8x gate applies to the full
# 1,2,4 sweep that produces the tracked BENCH_fleet.json).
bench-fleet-smoke:
	$(PYTHON) benchmarks/bench_server.py --quick --fleet 1,2 \
		-o /tmp/pymao_bench_fleet.json
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_bench_fleet.json

perf-report:
	$(PYTHON) scripts/perf_report.py

trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli --mao=REDTEST:LOOP16 \
		--sim core2 --jobs 2 --trace-out /tmp/pymao_trace.jsonl \
		-o /tmp/pymao_trace_out.s examples/hot_loop.s
	$(PYTHON) scripts/validate_trace.py /tmp/pymao_trace.jsonl \
		--require optimize --require parse --require pass:REDTEST \
		--require relax --require simulate
	$(PYTHON) scripts/perf_report.py --check /tmp/pymao_trace.jsonl

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
