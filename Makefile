# Development entry points for the PrefillOnly reproduction.
#
#   make test        - tier-1 test suite (unit + property tests + benchmarks, small scale)
#   make bench       - only the benchmark harness (regenerates tables/figures)
#   make bench-paper - benchmark harness at the paper's full workload scale
#   make bench-tiers - only the KV-tiering benchmark (tiered vs suffix discard)
#   make bench-sweep - serial vs parallel engine sweep (byte-identical results)
#   make bench-selftest - repo benchmark self-test: tracer targets found, exact counters,
#                    tracing changes no result (perfbench/selftest.py)
#   make bench-pairs PARENT=DIR WORKLOAD="W ..." - alternating parent/change benchmark
#                    pairs per workload with a gain / bound verdict per metric; exits 3
#                    when a metric is worse than its bound (scripts/bench_pairs.py)
#   make fuzz        - scenario + metamorphic fuzzers and the scheduler / prefix-cache /
#                    block-hash oracles, full derandomized profile
#   make mutants     - seeded KV, tier-feed and hedge mutants, each of which the mutant
#                    tests must kill
#                    (scripts/mutants.py)
#   make test-shard-identity - sharded-engine differential suite (byte-identity at shards=4)
#   make obs-check   - validate observability exports + disabled-path seed fingerprints
#   make test-resilience - resilience unit + identity suite (policies-off byte-identical)
#   make scenarios-resilience - run the chaos+policy scenarios at shards 1 and 4
#   make docs-check  - fail if README / docs reference nonexistent modules or CLI flags
#   make examples    - run every example script end to end
#   make scenarios   - smoke-run every CLI example in docs/SCENARIOS.md

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

#: Worker processes for the parallel experiment runner targets.
PERF_WORKERS ?= 4

#: Workload seed of make bench-pairs.
SEED ?= 0

.PHONY: test test-shard-identity test-resilience bench bench-paper bench-tiers bench-sweep bench-selftest bench-pairs fuzz mutants obs-check docs-check examples scenarios scenarios-resilience

test:
	$(PYTHON) -m pytest -x -q

test-shard-identity:
	$(PYTHON) -m pytest tests/test_sharded_identity.py tests/test_sharded_merge.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q -s

bench-paper:
	REPRO_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks -q -s

bench-tiers:
	$(PYTHON) -m pytest benchmarks/test_kv_tiers.py -q -s

bench-sweep:
	$(PYTHON) scripts/perf_report.py sweep --workers $(PERF_WORKERS) --min-speedup 2.0

bench-selftest:
	$(PYTHON) perfbench/selftest.py

bench-pairs:
	$(if $(PARENT),,$(error PARENT=DIR, a checkout of the parent commit, is required))
	$(if $(WORKLOAD),,$(error WORKLOAD=NAME is required))
	$(PYTHON) scripts/bench_pairs.py --parent $(PARENT) $(foreach w,$(WORKLOAD),--workload $(w)) --seed $(SEED)

fuzz:
	HYPOTHESIS_PROFILE=fuzz $(PYTHON) -m pytest tests/test_scenario_fuzz.py tests/test_metamorphic.py \
		tests/test_scheduler_oracle.py tests/test_prefix_cache_oracle.py tests/test_block_hashes.py -q

mutants:
	$(PYTHON) scripts/mutants.py

obs-check:
	$(PYTHON) scripts/obs_check.py

test-resilience:
	$(PYTHON) -m pytest tests/test_resilience.py tests/test_resilience_identity.py -q

scenarios-resilience:
	$(PYTHON) -m repro.cli scenario run --config examples/scenarios/chaos_resilience_policies.json
	$(PYTHON) -m repro.cli scenario run --config examples/scenarios/chaos_resilience_policies_sharded.json

docs-check:
	$(PYTHON) scripts/docs_check.py

scenarios:
	$(PYTHON) scripts/run_cookbook.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran"
