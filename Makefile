PYTHON ?= python

.PHONY: test bench bench-quick perf-report check-tracked-artifacts clean

# The script benches; each writes one mao-bench/2 record and prints its
# gate verdicts.  bench_server.py runs twice: one server, then the fleet.
BENCHES = hotpath sim_engine batch server predict tune pgo discover

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -q perfbench/tests

# Full runs rewrite the tracked BENCH_*.json files.  Every bench runs even
# after one fails; the closing check lists each failed gate row.
bench:
	@status=0; \
	for b in $(BENCHES); do \
		$(PYTHON) benchmarks/bench_$$b.py || status=1; \
	done; \
	$(PYTHON) benchmarks/bench_server.py --fleet 1,2,4 || status=1; \
	$(PYTHON) scripts/perf_report.py --check > /dev/null || status=1; \
	exit $$status

# Quick runs of the same benches, written to /tmp so they never overwrite
# the tracked full-run records.
bench-quick:
	@rm -f /tmp/pymao_bench_*.json; status=0; \
	for b in $(BENCHES); do \
		$(PYTHON) benchmarks/bench_$$b.py --quick \
			-o /tmp/pymao_bench_$$b.json || status=1; \
	done; \
	$(PYTHON) benchmarks/bench_server.py --quick --fleet 1,2 \
		-o /tmp/pymao_bench_fleet.json || status=1; \
	$(PYTHON) scripts/perf_report.py --check \
		$(BENCHES:%=/tmp/pymao_bench_%.json) /tmp/pymao_bench_fleet.json \
		> /dev/null || status=1; \
	exit $$status

perf-report:
	$(PYTHON) scripts/perf_report.py

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

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
