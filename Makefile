# Development targets for the repro library.

PYTHON ?= python3

.PHONY: install test lint serve-check fabric-check chaos-check bench bench-json bench-batch bench-smoke kernel-check vector-check spec-check fault-check examples docs all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Lint with ruff (config in pyproject.toml).  Environments without ruff
# fall back to a bytecode-compile syntax gate so the target always
# means *something* rather than silently passing.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests tools; \
	else \
		echo "lint: ruff not installed; falling back to compileall syntax gate"; \
		$(PYTHON) -m compileall -q src tests tools && echo "lint: syntax ok"; \
	fi

# Boot a real `repro serve` on an ephemeral port, submit a tiny sweep
# over HTTP, and assert completion + cross-tenant dedup.
serve-check:
	PYTHONPATH=src $(PYTHON) tools/serve_check.py

# Kill a fabric worker subprocess mid-grid (os._exit, lease still
# held), resume with two fresh workers against the real SQLite store,
# and assert zero recomputed points (per-tier cache counters) plus a
# bit-identical final table.
fabric-check:
	PYTHONPATH=src $(PYTHON) tools/fabric_check.py

# Kill-anything-anytime chaos harness: six seeded fault schedules, each
# against a real `repro serve` + `repro worker` subprocesses (SIGKILL
# mid-chunk, remote-tier brownout, transport faults, lease skew, store
# contention, crash-between-cache-and-complete).  Every schedule must
# end bit-identical to the clean serial sweep with zero recomputes.
chaos-check:
	PYTHONPATH=src $(PYTHON) tools/chaos_check.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Machine-readable FIG5 performance report: samples/sec per closed-loop
# backend + bench wall times, written to BENCH_fig5.json.
bench-json:
	PYTHONPATH=src $(PYTHON) tools/bench_report.py

# Batched-sweep report: 64-point resonance curve serial vs batched,
# closed-loop spec sweep serial-fused vs kernel-batch, and the C-level
# thread-scaling curve, written to BENCH_sweep.json.
bench-batch:
	PYTHONPATH=src $(PYTHON) tools/bench_report.py --sweep

# Fused-kernel golden suite: every backend must reproduce the reference
# closed-loop waveforms bit-for-bit across the reference specs, and
# non-lowerable chains must fall back cleanly.  Next to it, the loop
# prelude's two memos: every memoized Butterworth design and every
# bridge-noise synthesis read from a seed's memoized normal stream must
# be bit-identical to a fresh design and a fresh generator.  Tier-1.
kernel-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/engine/test_kernel_equivalence.py tests/engine/test_kernel_lowering.py \
		tests/circuits/test_butterworth_memo.py tests/feedback/test_seed_stream.py -q

# Columnar SoA engine golden suite, both legs: once with the compiler
# present (every batch on its shape's megakernel, each instance
# np.array_equal to its solo fused run) and once with CC pointed at a
# *nonexistent* binary under a fresh TMPDIR (no cached .so can hide the
# failure), where every forced-columnar batch must decline to solo
# fused runs and stay bit-exact.  Note CC=/bin/false would not do: the
# probe only checks that the compiler exists, so a present-but-broken
# CC exercises the build *failure* path, not the no-compiler path.
vector-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/engine/test_kernel_columnar.py -q
	@echo "-- no-compiler pass: CC=no-such-compiler, forced-columnar batches must decline to solo fused, bit-exact --"
	CC=no-such-compiler TMPDIR=$$(mktemp -d) PYTHONPATH=src $(PYTHON) -m pytest \
		tests/engine/test_kernel_columnar.py -q

# Fast engine-path check: the three engine-ported benches on tiny
# grids, cache on (cold then warm — the warm runs must report all
# hits).  The same coverage runs inside tier-1 via tests/engine/.
bench-smoke:
	rm -rf .repro_cache_smoke
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ext_process_variation.py --smoke --cache-dir .repro_cache_smoke
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ext_resonance_curve.py --smoke --cache-dir .repro_cache_smoke
	PYTHONPATH=src $(PYTHON) benchmarks/bench_abl_placement.py --smoke --cache-dir .repro_cache_smoke
	@echo "-- warm re-run (expect cache hits, no stores) --"
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ext_process_variation.py --smoke --cache-dir .repro_cache_smoke
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ext_resonance_curve.py --smoke --cache-dir .repro_cache_smoke
	PYTHONPATH=src $(PYTHON) benchmarks/bench_abl_placement.py --smoke --cache-dir .repro_cache_smoke
	rm -rf .repro_cache_smoke

# Spec-layer check: JSON round-trip + hash stability of every reference
# spec, then a CLI `--set` override smoke.  The same coverage runs inside
# tier-1 via tests/config/.
spec-check:
	PYTHONPATH=src $(PYTHON) -m repro.config.check
	PYTHONPATH=src $(PYTHON) -m repro.cli info \
		--set cantilever.length_um=350 --set bridge.mismatch_sigma=0.001 \
		> /dev/null
	@echo "spec-check: CLI --set override smoke ok"

# Resilience suite: every injected fault either recovers bit-identically
# or comes back as a flagged degraded channel.  The second pass breaks
# the C compiler (CC=/bin/false) under a fresh TMPDIR (so no cached .so
# can hide the failure) and re-runs the golden equivalence suites: the
# fallback chain must still reproduce every waveform bit-for-bit.
fault-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/engine/test_resilience.py tests/engine/test_cache.py -q
	@echo "-- no-compiler pass: CC=/bin/false, fallback chain must stay bit-identical --"
	CC=/bin/false TMPDIR=$$(mktemp -d) PYTHONPATH=src $(PYTHON) -m pytest \
		tests/engine/test_kernel_equivalence.py tests/engine/test_kernel_batch.py -q
	@echo "fault-check: all injected faults recovered or flagged"

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		$(PYTHON) $$ex || exit 1; \
	done

docs:
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py > docs/API.md
	@echo "docs/API.md regenerated"

all: test vector-check fault-check bench-smoke fabric-check chaos-check bench examples

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .benchmarks src/*.egg-info
