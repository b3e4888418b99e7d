package progdb_test

import (
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/analysis/absint"
	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/progdb"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// TestCodecPreservesSuper pins the v2 codec's superinstruction side
// tables: a fused program round-trips with every SuperInstr intact, so a
// warm cache hit executes through the same fast paths as a cold compile.
func TestCodecPreservesSuper(t *testing.T) {
	for _, cp := range testPrograms(t) {
		if cp.Prog.NumSuper() == 0 {
			t.Fatalf("%s: compile produced no superinstructions; codec test is vacuous", cp.SourceName)
		}
		dec, err := progdb.Decode(progdb.Encode(cp))
		if err != nil {
			t.Fatalf("%s: decode: %v", cp.SourceName, err)
		}
		if got, want := dec.Prog.NumSuper(), cp.Prog.NumSuper(); got != want {
			t.Fatalf("%s: decoded %d superinstructions, want %d", cp.SourceName, got, want)
		}
		for fi, f := range cp.Prog.Funcs {
			df := dec.Prog.Funcs[fi]
			if len(f.Super) != len(df.Super) {
				t.Fatalf("%s/%s: Super len %d, want %d", cp.SourceName, f.Name, len(df.Super), len(f.Super))
			}
			for pc := range f.Super {
				if f.Super[pc] != df.Super[pc] {
					t.Errorf("%s/%s pc %d: Super %+v, want %+v",
						cp.SourceName, f.Name, pc, df.Super[pc], f.Super[pc])
				}
			}
		}
	}
}

// TestCodecRejectsCorruptSuper feeds the decoder side tables that violate
// its invariants — out-of-range opcode, impossible width, fused window
// past the end of Code — and requires a decode error for each, so a
// corrupted cache entry can never reach the dispatch loop.
func TestCodecRejectsCorruptSuper(t *testing.T) {
	corrupt := []struct {
		name string
		mut  func(s *bytecode.SuperInstr, pc int)
	}{
		{"op out of range", func(s *bytecode.SuperInstr, pc int) { s.Op = bytecode.NumSuperOps }},
		{"width too small", func(s *bytecode.SuperInstr, pc int) { s.W = 1 }},
		{"width too large", func(s *bytecode.SuperInstr, pc int) { s.W = 5 }},
		{"window past end", func(s *bytecode.SuperInstr, pc int) { s.W = 4 }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			cp := cachedFrom(t, "s.mpl", `func main() { print(1); }`)
			f := cp.Prog.Funcs[0]
			pc := len(f.Code) - 2
			if f.Super == nil {
				f.Super = make([]bytecode.SuperInstr, len(f.Code))
			}
			s := &f.Super[pc]
			*s = bytecode.SuperInstr{Op: bytecode.SuperCmpJf, W: 2}
			tc.mut(s, pc)
			if _, err := progdb.Decode(progdb.Encode(cp)); err == nil {
				t.Fatalf("decoder accepted corrupt side table (%s)", tc.name)
			}
		})
	}
}

// TestCodecPreservesWidenedAndFacts pins the fields the v3 codec added:
// the certificate-widened fusion count, the abstract-interpretation fact
// counters, and the lockset-pruned guard list must all survive a
// round-trip, so a warm cache hit answers `ppd vet -json` and
// `ppd stats` identically to a cold compile.
func TestCodecPreservesWidenedAndFacts(t *testing.T) {
	cfg := eblock.DefaultConfig()
	w := workloads.Histo(20)
	art, err := compile.Compile(source.NewFile(w.Name+".mpl", w.Src), compile.Opts{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if art.Prog.WidenedSuper == 0 {
		t.Fatal("histo compile produced no certificate-widened windows; test is vacuous")
	}
	cp := &progdb.CachedProgram{
		SourceName: w.Name + ".mpl", Source: w.Src, Config: cfg,
		Prog: art.Prog, Vet: art.Vet(nil),
	}
	dec, err := progdb.Decode(progdb.Encode(cp))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Prog.WidenedSuper != cp.Prog.WidenedSuper {
		t.Errorf("WidenedSuper = %d, want %d", dec.Prog.WidenedSuper, cp.Prog.WidenedSuper)
	}
	if cp.Vet.Facts.Intervals == 0 || cp.Vet.Facts.Nonzero == 0 {
		t.Fatalf("histo vet carries no facts; test is vacuous: %+v", cp.Vet.Facts)
	}
	if dec.Vet.Facts != cp.Vet.Facts {
		t.Errorf("facts counters = %+v, want %+v", dec.Vet.Facts, cp.Vet.Facts)
	}

	gc := cachedFrom(t, "guarded.mpl", workloads.GuardedCounter(2, 5).Src)
	if len(gc.Vet.Conflicts.Guarded) == 0 {
		t.Fatal("guarded-counter vet pruned nothing; test is vacuous")
	}
	gdec, err := progdb.Decode(progdb.Encode(gc))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gdec.Vet.Conflicts.Guarded, gc.Vet.Conflicts.Guarded; len(got) != len(want) {
		t.Fatalf("guard list length = %d, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("guard[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// TestCacheKeyFusionSensitivity: enabling, disabling, or reshaping the
// fusion table must change the content address, so a cache directory can
// serve fused and unfused compiles side by side without cross-talk.
func TestCacheKeyFusionSensitivity(t *testing.T) {
	cfg := eblock.DefaultConfig()
	off := progdb.CacheKey("a.mpl", "func main() {}", cfg, "off", absint.Fingerprint)
	full := progdb.CacheKey("a.mpl", "func main() {}", cfg, bytecode.DefaultFusionTable().Fingerprint(), absint.Fingerprint)
	one := &bytecode.FusionTable{Patterns: []bytecode.FusionPattern{{Op: bytecode.SuperNone + 1}}}
	reshaped := progdb.CacheKey("a.mpl", "func main() {}", cfg, one.Fingerprint(), absint.Fingerprint)
	if off == full || full == reshaped || off == reshaped {
		t.Errorf("fusion fingerprint does not separate cache keys: off=%s full=%s reshaped=%s", off, full, reshaped)
	}
	var nilTab *bytecode.FusionTable
	if nilTab.Fingerprint() != "off" {
		t.Errorf("nil table fingerprint = %q, want off", nilTab.Fingerprint())
	}
}

// TestCacheOldCodecVersionIsMiss: after a codec version bump, entries
// written by the previous version must read as clean misses (recompile
// and overwrite), never as errors or stale programs.
func TestCacheOldCodecVersionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := &progdb.Cache{Dir: dir}
	cp := cachedFrom(t, "old.mpl", `func main() { print(1); }`)
	key := progdb.CacheKey(cp.SourceName, cp.Source, cp.Config, "off", absint.Fingerprint)
	if _, err := c.Store(key, cp); err != nil {
		t.Fatal(err)
	}
	// Rewrite the stored entry with the previous codec version byte, as a
	// pre-bump ppd binary would have left it (v1 had no Super tables; a
	// version mismatch alone must already reject it).
	enc := progdb.Encode(cp)
	enc[4] = progdb.CodecVersion - 1
	if err := os.WriteFile(filepath.Join(dir, key+".ppdc"), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Load(key)
	if err != nil || got != nil {
		t.Fatalf("old-version entry Load = %v, %v; want clean miss", got, err)
	}
}
