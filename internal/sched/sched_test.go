package sched

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ppd/internal/obs"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d", got)
	}
	if got := New(7).Workers(); got != 7 {
		t.Errorf("New(7).Workers() = %d", got)
	}
	if Shared() != Shared() {
		t.Error("Shared must return one process-wide pool")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			counts := make([]int32, n)
			New(workers).ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestChunksAreDisjointAndComplete(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 16} {
		for _, n := range []int{1, 5, 16, 33} {
			var mu [64]int32 // covered marks, padded enough for n<=64
			var calls int32
			New(workers).Chunks(n, func(lo, hi int) {
				atomic.AddInt32(&calls, 1)
				if lo >= hi {
					t.Errorf("workers=%d n=%d: empty chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&mu[i], 1)
				}
			})
			if int(calls) > workers {
				t.Errorf("workers=%d n=%d: %d chunks exceed bound", workers, n, calls)
			}
			for i := 0; i < n; i++ {
				if mu[i] != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, mu[i])
				}
			}
		}
	}
}

func TestMapIsDeterministicallyOrdered(t *testing.T) {
	p := New(8)
	want := Map(New(1), 50, func(i int) int { return i * i })
	for rep := 0; rep < 20; rep++ {
		got := Map(p, 50, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: Map[%d] = %d, want %d", rep, i, got[i], want[i])
			}
		}
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to caller")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("panic lost its payload: %v", r)
		}
	}()
	New(4).ForEach(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestNewObsRecordsFanouts(t *testing.T) {
	sink := obs.New()
	p := NewObs(4, sink)
	got := Map(p, 10, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
	snap := sink.Snapshot()
	if n := snap.Counter("sched.fanouts"); n != 1 {
		t.Errorf("sched.fanouts = %d, want 1", n)
	}
	if n := snap.Counter("sched.tasks"); n != 10 {
		t.Errorf("sched.tasks = %d, want 10", n)
	}
	if n := snap.Counter("sched.chunks"); n != 4 {
		t.Errorf("sched.chunks = %d, want 4 (one per worker)", n)
	}
	// Every chunk's busy time is observed; wait is observed once per
	// spawned chunk (goroutine path only).
	if n := snap.Timer("sched.busy").Count; n != 4 {
		t.Errorf("sched.busy count = %d, want 4", n)
	}
	if n := snap.Timer("sched.wait").Count; n != 4 {
		t.Errorf("sched.wait count = %d, want 4", n)
	}
}

func TestNewObsInlinePathCountsBusyOnly(t *testing.T) {
	sink := obs.New()
	p := NewObs(1, sink)
	p.ForEach(5, func(int) {})
	snap := sink.Snapshot()
	if n := snap.Counter("sched.chunks"); n != 1 {
		t.Errorf("sched.chunks = %d, want 1 (inline)", n)
	}
	if n := snap.Timer("sched.busy").Count; n != 1 {
		t.Errorf("sched.busy count = %d, want 1", n)
	}
	if n := snap.Timer("sched.wait").Count; n != 0 {
		t.Errorf("sched.wait count = %d, want 0 (no goroutine spawned)", n)
	}
}

func TestNewObsNilSinkStaysQuiet(t *testing.T) {
	p := NewObs(4, nil)
	if got := Map(p, 8, func(i int) int { return i + 1 })[7]; got != 8 {
		t.Errorf("Map result = %d", got)
	}
}
