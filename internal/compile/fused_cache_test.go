package compile

import (
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/analysis/absint"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/progdb"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// TestCompileCachedWarmReturnsFused pins the cache ↔ fusion contract: a
// warm hit hands back the same superinstruction side tables a cold fused
// compile produced, and fused/unfused compiles of the same source never
// share an entry (the fusion fingerprint is part of the key).
func TestCompileCachedWarmReturnsFused(t *testing.T) {
	dir := t.TempDir()
	cfg := eblock.DefaultConfig()
	wl := workloads.TokenRing(4, 100)
	file := source.NewFile(wl.Name+".mpl", wl.Src)
	tab := bytecode.DefaultFusionTable()

	cold, err := Compile(file, Opts{Config: cfg, CacheDir: dir, Fusion: tab})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	want := cold.Prog.NumSuper()
	if want == 0 {
		t.Fatal("cold fused compile produced no superinstructions")
	}
	warm, err := Compile(file, Opts{Config: cfg, CacheDir: dir, Fusion: tab})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if got := warm.Prog.NumSuper(); got != want {
		t.Errorf("warm hit returned %d superinstructions, cold compile had %d", got, want)
	}

	// Same directory, fusion off: must miss the fused entry and produce a
	// clean program, not serve fused bytecode from the shared cache.
	plain, err := Compile(file, Opts{Config: cfg, CacheDir: dir, NoFusion: true})
	if err != nil {
		t.Fatalf("unfused: %v", err)
	}
	if got := plain.Prog.NumSuper(); got != 0 {
		t.Errorf("unfused compile returned %d superinstructions from a shared cache dir", got)
	}
	warmPlain, err := Compile(file, Opts{Config: cfg, CacheDir: dir, NoFusion: true})
	if err != nil {
		t.Fatalf("warm unfused: %v", err)
	}
	if got := warmPlain.Prog.NumSuper(); got != 0 {
		t.Errorf("warm unfused hit returned %d superinstructions", got)
	}
}

// TestCacheKeyUsesResolvedFusionTable pins the cache key across the
// fusion settings: a nil Opts.Fusion stores under the default table's
// fingerprint (the same key an explicit default table gets) and NoFusion
// under no table's, so entries written by either spelling keep hitting.
func TestCacheKeyUsesResolvedFusionTable(t *testing.T) {
	cfg := eblock.DefaultConfig()
	wl := workloads.TokenRing(4, 100)
	file := source.NewFile(wl.Name+".mpl", wl.Src)
	var none *bytecode.FusionTable
	for _, tc := range []struct {
		name string
		opts Opts
		fp   string
	}{
		{"default", Opts{}, bytecode.DefaultFusionTable().Fingerprint()},
		{"explicit default", Opts{Fusion: bytecode.DefaultFusionTable()}, bytecode.DefaultFusionTable().Fingerprint()},
		{"no fusion", Opts{NoFusion: true}, none.Fingerprint()},
	} {
		dir := t.TempDir()
		tc.opts.Config, tc.opts.CacheDir = cfg, dir
		if _, err := Compile(file, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		key := progdb.CacheKey(file.Name, file.Content, cfg, tc.fp, absint.Fingerprint)
		if _, err := os.Stat(filepath.Join(dir, key+".ppdc")); err != nil {
			t.Errorf("%s: no entry under the resolved table's key: %v", tc.name, err)
		}
	}
}
