# Developer/CI entry points. `make check` is the gate: vet, formatting,
# build, and the full test suite under Go's race detector — the debugging
# phase now runs concurrent (sched worker pool, controller prefetch), so
# our own race detector's implementation is itself race-checked.

GO ?= go

.PHONY: all build test race vet fmt check cover ci bench bench-smoke pardebug obsoverhead execlog vet-mpl vetprune compilecache cache-check fusion-check absint-check dispatch serve serve-smoke stream stream-smoke emu-check debug perfbench-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrent packages (sched, race, parallel, controller) plus
# everything that rides on them, under the Go race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

check: vet fmt build race fusion-check
	@echo "check: OK"

# The checked-in profile-guided fusion table must be regenerable: the test
# re-profiles the standard workloads and diffs the result against
# internal/bytecode/fusiontable_gen.go. Refresh deliberately with
#   PPD_UPDATE_FUSION=1 $(GO) test ./internal/vm -run TestFusionTableFresh
fusion-check:
	$(GO) test -run TestFusionTableFresh ./internal/vm/
	@echo "fusion-check: OK"

# Abstract-interpretation gate: the engine's own unit suite, the fuzz
# targets' seed corpora, the vet golden matrix (which pins the four
# absint-backed passes), the lockset-pruning equivalence tests, and the
# certificate-widened fused-vs-unfused byte-identity checks.
absint-check:
	$(GO) test ./internal/analysis/absint/
	$(GO) test -run 'TestVetGolden|TestVetAcceptance' ./internal/analysis/
	$(GO) test -run 'TestMaskedEquivalentToUnfiltered|TestLocksetPrunesGuardedCounter' ./internal/race/
	$(GO) test -run 'TestLogGoldenFusedVsUnfused|TestRacesFusedVsUnfused|TestFusionCoverage' ./internal/vm/
	@echo "absint-check: OK"

# Coverage profile + per-package summary. internal/obs is the metrics
# contract every phase reports through, so it carries a hard floor.
OBS_COVER_FLOOR = 80
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@obs=$$($(GO) test -cover ./internal/obs/ | awk '{for (i=1;i<=NF;i++) if ($$i ~ /%/) print $$i}' | tr -d '%' | cut -d. -f1); \
	if [ "$$obs" -lt "$(OBS_COVER_FLOOR)" ]; then \
		echo "cover: internal/obs coverage $$obs% is below the $(OBS_COVER_FLOOR)% floor"; exit 1; \
	fi; \
	echo "cover: internal/obs $$obs% (floor $(OBS_COVER_FLOOR)%)"

# Static analysis over the checked-in MPL programs, with expectations:
# the clean programs must pass `ppd vet -strict`, and the racy program
# must fail it (so a regression that silences the analyzer breaks CI too).
vet-mpl: build
	$(GO) run ./cmd/ppd vet -strict testdata/quick.mpl
	$(GO) run ./cmd/ppd vet -strict testdata/crash.mpl
	@if $(GO) run ./cmd/ppd vet -strict testdata/racy.mpl >/dev/null 2>&1; then \
		echo "vet-mpl: racy.mpl must fail vet -strict"; exit 1; \
	fi
	@echo "vet-mpl: OK"

ci: check cover bench-smoke vet-mpl absint-check cache-check serve-smoke stream-smoke emu-check perfbench-smoke
	@echo "ci: OK"

# Debugging-phase fast-path gate: the pooled fast-dispatch emulation must
# be byte-identical to the fresh-VM generic oracle across the golden
# matrix (fused and unfused), pooled contexts must actually recycle,
# checkpointed ReplayTo must equal the from-scratch fold at every record
# boundary, and the E22 bench must run end to end (tiny -smoke version,
# no BENCH file written).
emu-check: build
	$(GO) test -run 'TestEmuDispatchByteIdentical|TestPoolReuseObservable|TestEmulateIntoRecycles|TestEmulateConcurrentWidths' ./internal/emulation/
	$(GO) test -run 'TestReplayTo' ./internal/controller/
	$(GO) run ./cmd/ppdbench debug -smoke
	@echo "emu-check: OK"

# Regenerate the E22 debugging-phase fast-path table (writes BENCH_debug.json).
debug: build
	$(GO) run ./cmd/ppdbench debug

# Online-pipeline gate: a live monitored run end-to-end (ppd watch), the
# early-abort path (run -first-race must flag the racy program with a
# nonzero exit), and the oracle-equivalence golden test.
stream-smoke: build
	$(GO) run ./cmd/ppd watch -quantum 1 testdata/racy.mpl
	@if $(GO) run ./cmd/ppd run -first-race -quantum 1 testdata/racy.mpl >/dev/null 2>&1; then \
		echo "stream-smoke: run -first-race must exit nonzero on racy.mpl"; exit 1; \
	fi
	$(GO) test -run TestOnlineRacesByteIdentical ./internal/stream/
	@echo "stream-smoke: OK"

# Regenerate the E20 streaming-analysis table (writes BENCH_stream.json).
stream: build
	$(GO) run ./cmd/ppdbench stream

# Daemon liveness gate: start `ppd serve` on an ephemeral port, drive one
# session through the whole HTTP surface (create → races → flowback →
# what-if → metrics → delete), and shut down cleanly.
serve-smoke: build
	$(GO) run ./cmd/ppd serve -smoke
	@echo "serve-smoke: OK"

# Regenerate the E19 serving-daemon load-test table (writes BENCH_serve.json).
serve: build
	$(GO) run ./cmd/ppdbench serve

# The repo benchmark (perfbench/) is its own module, so `go test ./...`
# at the root never reaches it: run its smoke test — every workload on
# tiny inputs, traced and untraced, with all answer checks — here.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	@echo "perfbench-smoke: OK"

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark: catches benchmarks that panic or rot
# without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Regenerate the E13 parallel-debugging-phase table.
pardebug: build
	$(GO) run ./cmd/ppdbench pardebug

# Regenerate the E14 observability-overhead table.
obsoverhead: build
	$(GO) run ./cmd/ppdbench obsoverhead

# Regenerate the E15 execution-hot-path table (writes BENCH_exec.json).
execlog: build
	$(GO) run ./cmd/ppdbench execlog

# Regenerate the E16 static-pruning table (writes BENCH_analysis.json).
vetprune: build
	$(GO) run ./cmd/ppdbench vetprune

# Regenerate the E17 compile-cache table (writes BENCH_compile.json).
compilecache: build
	$(GO) run ./cmd/ppdbench compilecache

# Regenerate the E18 dispatch table (writes BENCH_dispatch.json).
dispatch: build
	$(GO) run ./cmd/ppdbench dispatch

# Cache correctness gate: a warm cached compile must be observationally
# identical to a fresh one (execution log bytes, program output, vet
# diagnostics, race reports), the parallel pipeline byte-identical to the
# sequential one, and the codec a lossless fixed point.
cache-check:
	$(GO) test -run 'TestCacheColdWarmIdentical|TestCacheWarmDebugging|TestCacheEnvVar' .
	$(GO) test -run 'TestParallelByteIdentical|TestCompileCachedColdWarm' ./internal/compile/
	$(GO) test -run 'TestCodec|TestCache' ./internal/progdb/
	@echo "cache-check: OK"
