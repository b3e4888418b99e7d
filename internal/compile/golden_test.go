package compile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/progdb"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// stringsSrc prints string literals from three functions, one literal
// shared by two of them: every shipped program prints strings from main
// only, so it alone shows the order the string table is filled in.
const stringsSrc = `func show(n int) {
	print("show=", n);
	print("shared");
}
func twice(n int) int {
	print("twice=", n);
	print("shared");
	return n + n;
}
func main() {
	var x = 1;
	x = x + twice(x);
	show(x);
	print("main=", x);
}
`

// identitySources gathers every MPL program the repo ships: the benchmark
// workloads (including the wide Sharded program, one function per worker)
// and the testdata corpus, plus stringsSrc.
func identitySources(t testing.TB) map[string]string {
	t.Helper()
	srcs := map[string]string{"strings.mpl": stringsSrc}
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

// compileGolden holds, per identitySources program, the hash
// TestCompileGolden computes over its preparatory-phase output. The hashes
// were taken at commit 74c9a49, whose pipeline fanned the per-function
// passes out on a worker pool and merged their partial results in function
// order, so they hold the sequential pipeline to that one's answers.
var compileGolden = map[string]string{
	"absint_bounds.mpl":  "f83c59cb5c656abebe9513cedf850c70",
	"absint_divsafe.mpl": "34367e0ca026bff9bbad00eaa7698587",
	"absint_divzero.mpl": "904976bc332e863f69a0f74a32b2046c",
	"absint_guarded.mpl": "f46912b8fee84590435a1993bf5b35c6",
	"crash.mpl":          "c42e30be03af513a6a02f2261340f4cf",
	"divide.mpl":         "60631d3d0c1ab6dff9713adf0bd91196",
	"histo.mpl":          "465bfbd310309b46c24001f926f0f771",
	"matmul.mpl":         "e3bcb92b613de31e652ed4e350284495",
	"prodcons.mpl":       "34efb1446a671acd0d24d237556f29fe",
	"quick.mpl":          "cad446b8fde559d53d2346437ae8c3d9",
	"racy.mpl":           "1c13b4664d9eeb25b75b570267e4f45e",
	"sharded-8x4.mpl":    "ddc602b4b4f96c764c6a075f849a87a6",
	"strings.mpl":        "8b58ecbea360853d5918651f4dc8f51a",
	"tokenring.mpl":      "d091046907edaf6665c24d7f905f7236",
}

// TestCompileGolden pins the preparatory phase's output byte for byte
// against fixed answers: per program, the bytecode through the cache
// codec, the vet text, and the program database of both a full compile and
// a hydrated cache hit — Dump, every statement's branch flag and calls,
// and every local's def and use sites, which Dump leaves out. A rewrite of
// code generation's string interning or of the database's site order
// changes a hash here even when a second run of the same code would agree
// with the first.
func TestCompileGolden(t *testing.T) {
	cfg := eblock.DefaultConfig()
	dir := t.TempDir()
	srcs := identitySources(t)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := srcs[name]
		cold, err := Compile(source.NewFile(name, src), Opts{Config: cfg, CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		warm, err := Compile(source.NewFile(name, src), Opts{Config: cfg, CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: warm: %v", name, err)
		}
		if err := warm.Hydrate(); err != nil {
			t.Fatalf("%s: hydrate: %v", name, err)
		}
		h := sha256.New()
		h.Write(progBytes(t, name, src, cfg, cold))
		h.Write([]byte(cold.Vet(nil).Text()))
		dbHash(h, cold.DB)
		dbHash(h, warm.DB)
		got := hex.EncodeToString(h.Sum(nil))[:32]
		if want := compileGolden[name]; got != want {
			t.Errorf("%s: hashes to %s, golden %s", name, got, want)
		}
	}
}

// dbHash writes everything the program database answers into h.
func dbHash(h hash.Hash, db *progdb.DB) {
	h.Write([]byte(db.Dump()))
	for _, fn := range db.Info.FuncList {
		for _, s := range ast.Stmts(fn.Decl.Body) {
			si := db.Stmt(s.ID())
			fmt.Fprintf(h, "s%d branch=%v calls=%v\n", si.ID, si.IsBranch, si.Calls)
		}
		for _, l := range fn.Locals {
			vs := db.Local(fn.Name(), l.Name)
			fmt.Fprintf(h, "%s.%s defs=%v uses=%v\n", fn.Name(), l.Name, vs.Defs, vs.Uses)
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
