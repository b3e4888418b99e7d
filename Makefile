# Developer/CI entry points. `make check` is the gate: vet, formatting,
# build, and the full test suite under Go's race detector — the debugging
# phase now runs concurrent (sched worker pool, controller prefetch), so
# our own race detector's implementation is itself race-checked.

GO ?= go

.PHONY: all build test race vet fmt check cover ci bench bench-smoke vet-mpl serve-smoke stream-smoke examples-smoke perfbench-smoke

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

check: vet fmt build race
	@echo "check: OK"

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

ci: check cover bench-smoke vet-mpl serve-smoke stream-smoke examples-smoke perfbench-smoke
	@echo "ci: OK"

# Online-pipeline gate: a live monitored run end-to-end (ppd watch) and
# the early-abort path (run -first-race must flag the racy program with a
# nonzero exit).
stream-smoke: build
	$(GO) run ./cmd/ppd watch -quantum 1 testdata/racy.mpl
	@if $(GO) run ./cmd/ppd run -first-race -quantum 1 testdata/racy.mpl >/dev/null 2>&1; then \
		echo "stream-smoke: run -first-race must exit nonzero on racy.mpl"; exit 1; \
	fi
	@echo "stream-smoke: OK"

# Example gate: each examples/<name> program must print exactly its
# checked-in examples/<name>/output.golden. The examples are walkthroughs
# of the public API, so any change to what they print shows up here.
examples-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	for dir in examples/*/; do \
		name=$$(basename "$$dir"); \
		$(GO) run "./$$dir" > "$$tmp" || exit 1; \
		if ! diff -u "$${dir}output.golden" "$$tmp"; then \
			echo "examples-smoke: $$name output differs from its golden"; exit 1; \
		fi; \
	done
	@echo "examples-smoke: OK"

# Daemon liveness gate: start `ppd serve` on an ephemeral port, drive one
# session through the whole HTTP surface (create → races → flowback →
# what-if → metrics → delete), and shut down cleanly.
serve-smoke: build
	$(GO) run ./cmd/ppd serve -smoke
	@echo "serve-smoke: OK"

# The repo benchmark (perfbench/) is its own module, so `go test ./...`
# at the root never reaches it: run its smoke test — every workload on
# tiny inputs, traced and untraced, with all answer checks — here.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
	@echo "perfbench-smoke: OK"

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every benchmark: catches benchmarks that fail or rot
# without paying for stable timings. Every experiment in DESIGN.md's index
# maps to one of these benchmarks (or a test, or a perfbench metric);
# each benchmark fails on any error, so this is also the end-to-end run of
# the debugging-phase fast path (E22).
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
