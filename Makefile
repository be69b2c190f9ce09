PYTHON ?= python

.PHONY: test bench bench-quick perf-report check-tracked-artifacts clean

# The script benches; each writes one mao-bench/2 record and prints its
# gate verdicts.
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
	$(PYTHON) scripts/perf_report.py --check \
		$(BENCHES:%=/tmp/pymao_bench_%.json) > /dev/null || status=1; \
	exit $$status

perf-report:
	$(PYTHON) scripts/perf_report.py

# Fail if any compiled artifact is tracked: __pycache__ directories
# and *.pyc files must never re-enter the index.
# Every compiled or derived artifact .gitignore lists: __pycache__/,
# *.py[cod], *.so, *$py.class, .coverage*, build/, dist/, *.egg-info/.
TRACKED_ARTIFACTS = (^|/)(__pycache__|build|dist|[^/]*\.egg-info)(/|$$)|\.py[cod]$$|\.so$$|\$$py\.class$$|(^|/)\.coverage(\.[^/]*)?$$

check-tracked-artifacts:
	@bad=$$(git ls-files | grep -E '$(TRACKED_ARTIFACTS)' || true); \
	if [ -n "$$bad" ]; then \
		echo "tracked compiled artifacts:" >&2; echo "$$bad" >&2; \
		exit 1; \
	fi
	@echo "no tracked compiled artifacts"

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis
