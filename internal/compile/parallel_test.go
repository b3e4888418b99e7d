package compile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/progdb"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// identitySources gathers every MPL program the repo ships: the benchmark
// workloads (including the wide Sharded program, one function per worker)
// and the testdata corpus.
func identitySources(t testing.TB) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, w := range workloads.Standard() {
		srcs[w.Name+".mpl"] = w.Src
	}
	w := workloads.Sharded(8, 4)
	srcs[w.Name+".mpl"] = w.Src
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mpl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	return srcs
}

// progBytes serializes an artifact's bytecode through the cache codec —
// the strictest equality available: every instruction, operand, string
// table index, and block metadata field participates.
func progBytes(t testing.TB, name, src string, cfg eblock.Config, art *Artifacts) []byte {
	t.Helper()
	return progdb.Encode(&progdb.CachedProgram{
		SourceName: name, Source: src, Config: cfg, Prog: art.Prog,
	})
}

// TestParallelByteIdentical pins the tentpole invariant: the parallel
// pipeline — at any fan-out width — produces bytecode byte-identical to
// the sequential pipeline, and identical vet output too.
func TestParallelByteIdentical(t *testing.T) {
	cfg := eblock.DefaultConfig()
	for name, src := range identitySources(t) {
		file := source.NewFile(name, src)
		seq, err := Compile(file, Opts{Config: cfg, Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		want := progBytes(t, name, src, cfg, seq)
		wantVet := seq.Vet(nil).Text()
		for _, workers := range []int{0, 2, 4, 8} {
			par, err := Compile(source.NewFile(name, src), Opts{Config: cfg, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got := progBytes(t, name, src, cfg, par)
			if !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: bytecode differs from sequential (%d vs %d bytes)",
					name, workers, len(got), len(want))
			}
			if gotVet := par.Vet(nil).Text(); gotVet != wantVet {
				t.Errorf("%s workers=%d: vet differs:\n got: %s\nwant: %s",
					name, workers, gotVet, wantVet)
			}
		}
	}
}

// TestCompileCachedColdWarm checks the persistent cache end to end inside
// the compile layer: a cold compile stores, a warm compile hits, and both
// hand back byte-identical bytecode and vet output — warm even before and
// after hydration.
func TestCompileCachedColdWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := eblock.DefaultConfig()
	for name, src := range identitySources(t) {
		coldSink := obs.New()
		cold, err := Compile(source.NewFile(name, src), Opts{Config: cfg, CacheDir: dir, Sink: coldSink})
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if got := coldSink.Snapshot().Counters["compile.cache.misses"]; got != 1 {
			t.Errorf("%s cold: misses = %d, want 1", name, got)
		}
		warmSink := obs.New()
		warm, err := Compile(source.NewFile(name, src), Opts{Config: cfg, CacheDir: dir, Sink: warmSink})
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		snap := warmSink.Snapshot()
		if got := snap.Counters["compile.cache.hits"]; got != 1 {
			t.Errorf("%s warm: hits = %d, want 1", name, got)
		}
		if got := snap.Counters["compile.cache.bytes"]; got <= 0 {
			t.Errorf("%s warm: bytes = %d, want > 0", name, got)
		}
		if warm.Hydrated() {
			t.Errorf("%s warm: artifact should start shallow", name)
		}
		if !bytes.Equal(progBytes(t, name, src, cfg, warm), progBytes(t, name, src, cfg, cold)) {
			t.Errorf("%s: warm bytecode differs from cold", name)
		}
		if got, want := warm.Vet(nil).Text(), cold.Vet(nil).Text(); got != want {
			t.Errorf("%s: warm vet differs:\n got: %s\nwant: %s", name, got, want)
		}
		if err := warm.Hydrate(); err != nil {
			t.Fatalf("%s: hydrate: %v", name, err)
		}
		if warm.DB == nil || warm.PDG == nil || warm.Info == nil || warm.Plan == nil {
			t.Fatalf("%s: hydrate left semantic layers nil", name)
		}
		if warm.Facts != nil {
			t.Errorf("%s: hydrate reran abstract interpretation", name)
		}
		// The hydrated database must serve the persisted vet result, not
		// recompute one.
		if warm.DB.Vet() == nil {
			t.Errorf("%s: hydrated DB has no vet result seeded", name)
		}
		if got, want := warm.Vet(nil).Text(), cold.Vet(nil).Text(); got != want {
			t.Errorf("%s: post-hydrate vet differs", name)
		}
	}
}
