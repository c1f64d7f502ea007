PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast bench sweep campaign faults profile trace fidelity \
	golden golden-refresh reliability reliability-bench ftl tenants \
	determinism

# Tier-1 verification: the full unit/integration suite.
test:
	$(PYTHON) -m pytest -x -q

# Skip tests marked `slow` (the heavy benchmark sweeps).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Kernel speed benchmark; refreshes BENCH_kernel_speed.json at the repo root.
bench:
	$(PYTHON) benchmarks/bench_kernel_speed.py

# Fault-injection determinism check: the seeded campaign must produce
# byte-identical JSON across two runs (and across worker counts).
faults:
	$(PYTHON) -m repro faults --json --workers 1 > /tmp/repro-faults-a.json
	$(PYTHON) -m repro faults --json --workers 4 > /tmp/repro-faults-b.json
	cmp /tmp/repro-faults-a.json /tmp/repro-faults-b.json
	@echo "faults campaign deterministic across worker counts"

# Observability smoke: run a tiny profiled workload, export a Chrome
# trace and validate it against the trace_event format rules.
profile:
	$(PYTHON) -m repro profile --workload SR --commands 120 \
		--trace-out /tmp/repro-profile-trace.json
	$(PYTHON) tools/validate_trace.py /tmp/repro-profile-trace.json
	@echo "profile smoke OK (trace validates)"

# Sweep-engine benchmark: serial vs parallel vs warm-cache Fig. 3 sweep;
# refreshes BENCH_sweep.json at the repo root.  Knobs:
# REPRO_BENCH_COMMANDS (workload length), REPRO_SWEEP_WORKERS (width).
sweep:
	$(PYTHON) benchmarks/bench_sweep.py

# Campaign-engine benchmark: two-worker crash/resume against the golden
# fig3 payloads, plus adaptive vs exhaustive exploration of the fig3
# grid; merges a `campaign` section into BENCH_sweep.json.  Knobs:
# REPRO_BENCH_COMMANDS (grid workload length), REPRO_ADAPTIVE_BUDGET.
campaign:
	$(PYTHON) benchmarks/bench_campaign.py

# Reliability-campaign determinism check: the Monte-Carlo campaign must
# produce byte-identical JSON across worker counts (fresh directories so
# neither run serves the other's cache).
reliability:
	rm -rf /tmp/repro-rel-w1 /tmp/repro-rel-w4
	$(PYTHON) -m repro reliability run /tmp/repro-rel-w1 --workers 1 \
		--replicas 8 --fractions 1.0 --commands 48 --json --quiet \
		> /tmp/repro-rel-a.json
	$(PYTHON) -m repro reliability run /tmp/repro-rel-w4 --workers 4 \
		--replicas 8 --fractions 1.0 --commands 48 --json --quiet \
		> /tmp/repro-rel-b.json
	cmp /tmp/repro-rel-a.json /tmp/repro-rel-b.json
	@echo "reliability campaign deterministic across worker counts"

# Reliability-campaign benchmark: serial vs multi-process replica
# throughput + byte identity; refreshes BENCH_reliability.json.  Knobs:
# REPRO_BENCH_COMMANDS, REPRO_BENCH_REPLICAS, REPRO_BENCH_WORKERS.
reliability-bench:
	$(PYTHON) benchmarks/bench_reliability.py

# FTL scheme-zoo smoke: list the registered schemes, sweep three of them
# across a DRAM budget on the bundled trace (analytic WAF cross-check
# included) and require byte-identical JSON across worker counts.
ftl:
	$(PYTHON) -m repro ftl schemes
	$(PYTHON) -m repro ftl sweep --schemes pagemap,groupmap,dftl \
		--dram-budgets 8192 --commands 60 --workers 1 --json \
		> /tmp/repro-ftl-a.json
	$(PYTHON) -m repro ftl sweep --schemes pagemap,groupmap,dftl \
		--dram-budgets 8192 --commands 60 --workers 4 --json \
		> /tmp/repro-ftl-b.json
	cmp /tmp/repro-ftl-a.json /tmp/repro-ftl-b.json
	@echo "ftl sweep deterministic across worker counts"

# Multi-tenant serving smoke: run a 3-tenant mix, print the pairwise
# interference report, and require the tenant-count x policy sweep to be
# byte-identical across worker counts.
tenants:
	$(PYTHON) -m repro tenants run --tenants 3 --policy wrr
	$(PYTHON) -m repro tenants report --tenants 2
	$(PYTHON) -m repro tenants sweep --counts 1,2 --workers 1 --json \
		> /tmp/repro-tenants-a.json
	$(PYTHON) -m repro tenants sweep --counts 1,2 --workers 4 --json \
		> /tmp/repro-tenants-b.json
	cmp /tmp/repro-tenants-a.json /tmp/repro-tenants-b.json
	@echo "tenant sweep deterministic across worker counts"

# Runner determinism, the CI job of that name: every family's
# workers-1-vs-4 byte identity (faults, ftl, tenants, reliability), the
# replica benchmark, the campaign crash/resume-vs-golden benchmark and
# the serial/parallel/warm-cache sweep benchmark, at the sizes CI uses.
determinism:
	$(MAKE) faults ftl tenants reliability
	REPRO_BENCH_COMMANDS=48 REPRO_BENCH_REPLICAS=8 $(MAKE) reliability-bench
	REPRO_BENCH_COMMANDS=200 $(MAKE) campaign
	REPRO_BENCH_COMMANDS=200 $(MAKE) sweep

# Trace-ingestion smoke: characterize, replay and format-convert the
# bundled sample trace end to end through the CLI.
trace:
	$(PYTHON) -m repro trace characterize examples/sample_msr.csv
	$(PYTHON) -m repro trace replay examples/sample_msr.csv
	$(PYTHON) -m repro trace convert examples/sample_msr.csv \
		/tmp/repro-sample.trace --to native
	$(PYTHON) -m repro trace characterize /tmp/repro-sample.trace --json \
		> /dev/null
	@echo "trace smoke OK (characterize + replay + convert)"

# Fidelity-dial benchmark: calibrate the fast paths, replay the sample
# trace at both fidelity levels, enforce the >=10x speedup floor and the
# <=5% fig3/fig5 error bound; refreshes BENCH_fidelity.json.
fidelity:
	$(PYTHON) benchmarks/bench_fidelity.py

# Golden-figure regression tier only (also part of `make test`).
golden:
	$(PYTHON) -m pytest -x -q tests/golden

# Re-baseline the golden figures after an *intentional* behavior change;
# review the resulting tests/golden/*.json diff like code.
golden-refresh:
	$(PYTHON) tools/refresh_goldens.py
