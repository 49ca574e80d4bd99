# Tier-1 verification: the linter runs before the test suite so that
# nondeterminism, message-flow, wait and interference violations fail
# fast with file:line diagnostics instead of surfacing as a flaky trace
# diff mid-pytest.
# `typecheck` is skipped gracefully when mypy is not installed (the CI
# image installs it; the minimal dev container may not).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check lint typecheck test artifacts artifacts-check \
	observe bench-json bench-e2e chaos chaos-evidence profile \
	profile-evidence sweep sweep-smoke figures-check digests-check

# The freshness gates of the generated files under docs/ run once, inside
# `test` (the test_*_is_fresh tests call repro.artifacts.check on the
# session's one parse of the tree); `artifacts-check` is the same check
# by hand.
check: lint typecheck figures-check test chaos chaos-evidence profile-evidence

lint:
	$(PYTHON) -m repro.lint src/repro

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "typecheck: mypy not installed, skipping"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# The paper's figures and the Section 6 tables behind the gate:
# regenerate the tracked benchmarks/output/*.txt and fail if any differs
# from the copy taken before the run (so it works outside a git checkout;
# a stale file is left regenerated, ready to commit).  perf_kernel.txt is
# wall-clock, untracked, and not compared.
figures-check:
	@before=$$(mktemp -d); status=0; \
	cp benchmarks/output/*.txt $$before/ && rm -f $$before/perf_kernel.txt && \
	$(PYTHON) -m pytest benchmarks --ignore=benchmarks/e2e -q || status=1; \
	for file in $$before/*.txt; do \
		cmp $$file benchmarks/output/$$(basename $$file) || status=1; \
	done; \
	rm -rf $$before; \
	if [ $$status -eq 0 ]; then \
		echo "figure outputs up to date: benchmarks/output/*.txt"; \
	else \
		echo "figures-check: failed, or tracked outputs were stale (now regenerated)"; \
	fi; \
	exit $$status

# Chaos campaign matrix: every named fault campaign against every
# registered technique, driven through client edges with the retrying policy, with
# obs evidence artifacts (trace + spans + metrics + verdict report per
# cell) exported to CHAOS_OUT.  Fails if any cell violates its
# technique's declared guarantee.  See docs/resilience.md.
CHAOS_OUT ?= benchmarks/output/chaos
CHAOS_SEED ?= 0
chaos:
	$(PYTHON) -m repro chaos --seed $(CHAOS_SEED) --out $(CHAOS_OUT)

# The seed-0 chaos files are pinned byte for byte: each one `make chaos`
# writes must match its sha256 in CHAOS_EVIDENCE.  Regenerate that file
# only for a deliberate behaviour change, as with the goldens:
#   (cd $(CHAOS_OUT) && LC_ALL=C sha256sum $$(ls *--seed0.* | LC_ALL=C sort)) \
#       > tests/data/chaos_evidence.sha256
CHAOS_EVIDENCE = tests/data/chaos_evidence.sha256
chaos-evidence: chaos
	@if [ "$(CHAOS_SEED)" = 0 ]; then \
		cd $(CHAOS_OUT) && sha256sum -c --quiet $(CURDIR)/$(CHAOS_EVIDENCE) && \
		echo "chaos evidence byte-identical: $(CHAOS_EVIDENCE)"; \
	else \
		echo "chaos-evidence: pinned for CHAOS_SEED=0 only, skipped"; \
	fi

# Two seed-7 digests of each end-to-end workload (benchmarks/e2e),
# pinned in tests/data/sim_digests.json: the sim_digest, a hash of every
# simulated statistic of the run, and the outcome_digest, a hash of what
# clients and stores see (latencies, counts, final stores; no message
# counts).  A change that keeps the simulation byte-identical, or one
# that changes only the messages, is checked, not compared by hand.
# ~18 s, so not part of `check`.  Regenerate only for a deliberate
# behaviour change:
#   $(PYTHON) tests/sim_digests.py --write
digests-check:
	$(PYTHON) tests/sim_digests.py

# Observed run of one technique (TECH=..., SEED=...): writes the
# Perfetto trace, JSONL spans and metrics report to benchmarks/output/.
TECH ?= active
SEED ?= 1
observe:
	$(PYTHON) -m repro observe $(TECH) --seed $(SEED)

# Phase-resolved latency profiles (critical path + five-phase cost
# attribution + windowed time series) for every technique: writes
# profile_<tech>_seed<seed>.json and a Perfetto counter track per
# technique to PROFILE_OUT.  Byte-deterministic per seed.
PROFILE_OUT ?= benchmarks/output/profile
PROFILE_SEED ?= 7
profile:
	$(PYTHON) -m repro profile --all --seed $(PROFILE_SEED) --out $(PROFILE_OUT)

# The seed-7 profiles are pinned byte for byte, like the chaos evidence:
# they are the only observed-run output no other gate pins, and a change
# in span parentage moves them first.  Regenerate PROFILE_EVIDENCE only
# for a deliberate behaviour change:
#   (cd $(PROFILE_OUT) && LC_ALL=C sha256sum $$(ls *_seed7.* | LC_ALL=C sort)) \
#       > tests/data/profile_evidence.sha256
PROFILE_EVIDENCE = tests/data/profile_evidence.sha256
profile-evidence: profile
	@if [ "$(PROFILE_SEED)" = 7 ]; then \
		cd $(PROFILE_OUT) && sha256sum -c --quiet $(CURDIR)/$(PROFILE_EVIDENCE) && \
		echo "profile evidence byte-identical: $(PROFILE_EVIDENCE)"; \
	else \
		echo "profile-evidence: pinned for PROFILE_SEED=7 only, skipped"; \
	fi

# Open-loop seed x rate x technique sweep fanned across CPU cores:
# writes the merged byte-deterministic sweep.json plus the saturation
# table (goodput and p99 vs offered load, knee marked) for all ten
# techniques to SWEEP_OUT.  `sweep-smoke` is the CI-sized matrix (two
# techniques, one seed, two rates).  See docs/workloads.md.
SWEEP_OUT ?= benchmarks/output/sweep
sweep:
	$(PYTHON) -m repro sweep --out $(SWEEP_OUT)

sweep-smoke:
	$(PYTHON) -m repro sweep --smoke --out $(SWEEP_OUT)

# Kernel & network hot-path microbenchmarks: appends one row (measured
# figures + per-workload speedups over the recorded pre-optimization
# baseline + calibration_s) to the append-only perf trajectory
# BENCH_kernel.json at the repo root.  Not part of `check` — wall-clock
# results belong in an artifact, not a gate.
bench-json:
	$(PYTHON) benchmarks/perf_kernel.py --json BENCH_kernel.json --repeats 5

# End-to-end benchmark (BENCHMARK.json, benchmarks/e2e/README.md): five
# open-loop workloads, five repeats each plus one traced run for the
# per-layer ledger, then the verdict against the recorded seed-7 baseline
# (exit 1 on any `worse`).  ~3 min; not part of `check`.  The medians of
# a PR that claims a gain go into BENCH_e2e.json as that PR's row.
# `src` is byte-compiled first: under PYTHONDONTWRITEBYTECODE=1 a stale
# cache is never rewritten, so every child would recompile each edited
# module and bill it to `setup_s`.
BENCH_E2E_OUT ?= benchmarks/output/e2e
bench-e2e:
	$(PYTHON) -m compileall -q src
	$(PYTHON) benchmarks/e2e/run.py --repeats 5 --traced \
		--out $(BENCH_E2E_OUT)/results.json
	$(PYTHON) benchmarks/e2e/compare.py benchmarks/e2e/baseline.json \
		$(BENCH_E2E_OUT)/results.json

# Every generated, freshness-gated file under docs/ — the message
# catalog, the wait graph (+ per-technique DOT), the interference
# catalog, the phase cost matrix — through the one registry in
# src/repro/artifacts.py.  `make artifacts` regenerates them (after any
# edit under src/repro); `artifacts-check` exits 1 naming each missing,
# stale or orphaned file.  One entry only: `python -m repro artifacts
# [--check] NAME`.
artifacts:
	$(PYTHON) -m repro artifacts

artifacts-check:
	$(PYTHON) -m repro artifacts --check
