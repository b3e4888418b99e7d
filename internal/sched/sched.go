// Package sched is the shared worker pool: a small, bounded fan-out
// primitive used by the Controller's emulator construction and the
// preparatory phase's per-function passes (interproc, PDG, progdb, code
// generation). The parallel graph's build and race detection do not fan
// out: each is one sequential pass (parallel.Build, race.Detect).
//
// Those analyses decompose into independent units (per-process
// emulators, per-function passes). sched exploits that: work
// is split into at most Workers contiguous chunks, each chunk runs on its
// own goroutine, and results are merged back in index order — so callers
// get parallel speed with *deterministic* output, the product's core
// contract.
//
// Design rules:
//
//   - bounded: never more than Workers goroutines per call, GOMAXPROCS by
//     default, so nested fan-outs cannot explode;
//   - degenerate cases run inline: one worker or one item costs no
//     goroutine, which keeps single-core machines and tiny inputs at
//     sequential speed;
//   - panics inside workers are captured and re-raised on the caller's
//     goroutine, matching sequential semantics;
//   - merge order is the index order of the input, never completion order;
//   - observability is opt-in per pool (NewObs) and costs one nil check
//     per fan-out when disabled.
package sched

import (
	"fmt"
	"runtime"
	"sync"

	"ppd/internal/obs"
)

// Pool is a bounded worker pool. The zero value is unusable; use New or
// NewObs. A Pool carries no goroutines between calls — each fan-out spawns
// and joins its own workers — so a Pool is safe for concurrent use and
// costs nothing while idle.
type Pool struct {
	workers int

	// Observability (nil when disabled). Counters are resolved once here
	// so fan-outs never do name lookups.
	sink     *obs.Sink
	cFanouts *obs.Counter // fan-out calls (Chunks/ForEach/Map)
	cTasks   *obs.Counter // items fanned out
	cChunks  *obs.Counter // chunk goroutines (or inline runs) executed
	tWait    *obs.Timer   // per-chunk queue wait: fan-out start -> chunk start
	tBusy    *obs.Timer   // per-chunk busy time
}

// New returns a pool running at most workers goroutines per fan-out.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool { return NewObs(workers, nil) }

// NewObs returns a pool that reports fan-out counts, queue wait, and
// worker busy time to sink ("sched.*" metrics). A nil sink disables
// observation, leaving only a nil check per fan-out.
func NewObs(workers int, sink *obs.Sink) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if sink != nil {
		p.sink = sink
		p.cFanouts = sink.Counter("sched.fanouts")
		p.cTasks = sink.Counter("sched.tasks")
		p.cChunks = sink.Counter("sched.chunks")
		p.tWait = sink.Timer("sched.wait")
		p.tBusy = sink.Timer("sched.busy")
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide default pool, sized to GOMAXPROCS. The
// debugging phase's packages all fan out through this one pool so their
// combined parallelism stays bounded by the machine, not by the number of
// subsystems that happen to be busy.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0) })
	return sharedPool
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// chunks partitions [0, n) into at most p.workers near-equal contiguous
// ranges, returning the boundary list b with b[0]=0 and b[len-1]=n.
func (p *Pool) chunks(n int) []int {
	k := p.workers
	if k > n {
		k = n
	}
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	return bounds
}

// Chunks runs fn over at most Workers contiguous, disjoint sub-ranges of
// [0, n), concurrently, and blocks until all complete. fn(lo, hi) owns
// [lo, hi). Degenerate cases run inline on the caller's goroutine; a panic
// in any chunk is re-raised here.
func (p *Pool) Chunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.sink != nil {
		p.cFanouts.Inc()
		p.cTasks.Add(int64(n))
	}
	if p.workers == 1 || n == 1 {
		if p.sink != nil {
			p.cChunks.Inc()
			sw := p.tBusy.Start()
			fn(0, n)
			sw.Stop()
			return
		}
		fn(0, n)
		return
	}
	bounds := p.chunks(n)
	var launch obs.Stopwatch
	if p.sink != nil {
		p.cChunks.Add(int64(len(bounds) - 1))
		launch = p.tWait.Start()
	}
	var wg sync.WaitGroup
	panics := make([]any, len(bounds)-1)
	for c := 0; c < len(bounds)-1; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[c] = r
				}
			}()
			var sw obs.Stopwatch
			if p.sink != nil {
				launch.Stop() // queue wait of this chunk: fan-out start -> now
				sw = p.tBusy.Start()
			}
			fn(bounds[c], bounds[c+1])
			if p.sink != nil {
				sw.Stop()
			}
		}(c)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("sched: worker panic: %v", r))
		}
	}
}

// ForEach runs fn(i) for every i in [0, n), fanned out across the pool's
// workers in contiguous chunks, and blocks until all complete.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.Chunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map computes fn(i) for every i in [0, n) across the pool's workers and
// returns the results in index order — the deterministic merge.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
