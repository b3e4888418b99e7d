package ppd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/controller"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/replay"
	"ppd/internal/workloads"
)

// cacheTestSources is the cold→warm corpus: every shipped workload plus
// the testdata programs (racy, crashing, and quick ones alike).
func cacheTestSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := make(map[string]string)
	for _, w := range workloads.Standard() {
		srcs[w.Name+".mpl"] = w.Src
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mpl"))
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

type runResult struct {
	logBytes []byte
	output   string
	vetText  string
	races    string
}

// observe runs the full three-phase pipeline on prog and captures every
// externally visible artifact: the binary execution log, the program
// output, the vet text, and the race report.
func observe(t *testing.T, prog *Program) runResult {
	t.Helper()
	var out bytes.Buffer
	exec, err := prog.RunLogged(Options{Seed: 3, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := exec.WriteLog(&log); err != nil {
		t.Fatal(err)
	}
	return runResult{
		logBytes: log.Bytes(),
		output:   out.String(),
		vetText:  prog.Vet().Text(),
		races:    exec.RaceReport(),
	}
}

// TestCacheColdWarmIdentical is the end-to-end cache-correctness check:
// for every program, a fresh compile, a cold cached compile, and a warm
// cached compile must be observationally identical — byte-identical
// execution logs, identical program output, identical vet diagnostics,
// and identical race reports.
func TestCacheColdWarmIdentical(t *testing.T) {
	t.Setenv("PPD_CACHE_DIR", "") // isolate from the environment
	dir := t.TempDir()
	for name, src := range cacheTestSources(t) {
		fresh, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: fresh compile: %v", name, err)
		}
		want := observe(t, fresh)

		cold, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: cold cached compile: %v", name, err)
		}
		warm, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: warm cached compile: %v", name, err)
		}
		if warm.Artifacts().Hydrated() {
			t.Errorf("%s: warm program should start shallow", name)
		}
		for _, tc := range []struct {
			label string
			prog  *Program
		}{{"cold", cold}, {"warm", warm}} {
			got := observe(t, tc.prog)
			if !bytes.Equal(got.logBytes, want.logBytes) {
				t.Errorf("%s %s: execution log differs (%d vs %d bytes)",
					name, tc.label, len(got.logBytes), len(want.logBytes))
			}
			if got.output != want.output {
				t.Errorf("%s %s: program output differs:\n got: %q\nwant: %q",
					name, tc.label, got.output, want.output)
			}
			if got.vetText != want.vetText {
				t.Errorf("%s %s: vet text differs:\n got: %s\nwant: %s",
					name, tc.label, got.vetText, want.vetText)
			}
			if got.races != want.races {
				t.Errorf("%s %s: race report differs:\n got: %s\nwant: %s",
					name, tc.label, got.races, want.races)
			}
		}
	}
}

// TestCacheWarmDebugging drives the debugging phase off a warm (shallow)
// program: hydration must kick in transparently for breakpoints, flowback
// sessions, and what-if replay.
func TestCacheWarmDebugging(t *testing.T) {
	t.Setenv("PPD_CACHE_DIR", "")
	dir := t.TempDir()
	if _, err := CompileOpts("crash.mpl", facadeCrash, eblock.DefaultConfig(), Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	warm, err := CompileOpts("crash.mpl", facadeCrash, eblock.DefaultConfig(), Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := warm.RunLogged(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Failed() == nil {
		t.Fatal("expected the division-by-zero failure")
	}
	sess, err := exec.Debugger()
	if err != nil {
		t.Fatalf("debugger over warm program: %v", err)
	}
	var out bytes.Buffer
	sess.Exec(&out, "where")
	if out.Len() == 0 {
		t.Error("empty `where` output")
	}
}

// TestCacheEnvVar checks the PPD_CACHE_DIR fallback used by plain Compile.
func TestCacheEnvVar(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("PPD_CACHE_DIR", dir)
	if _, err := Compile("env.mpl", `func main() { print(7); }`); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.ppdc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache entries after env-var compile = %d, want 1", len(entries))
	}
	warm, err := Compile("env.mpl", `func main() { print(7); }`)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Artifacts().Hydrated() {
		t.Error("warm env-var program should start shallow")
	}
	var out bytes.Buffer
	if err := warm.Run(Options{Output: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "7\n" {
		t.Errorf("warm run output = %q", out.String())
	}
}

// debugView renders everything the debugging phase answers from the
// preparatory artifacts: every interval's dynamic graph (up to a cap per
// process) with its flowback fragment, the race and deadlock reports, the
// debugger's `where`, and a what-if at each process's first interval that
// restates a scalar global's starting value.
func debugView(t *testing.T, prog *Program) string {
	t.Helper()
	const maxIntervals = 12
	exec, err := prog.RunLogged(Options{Seed: 3, Quantum: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ctl := exec.Controller()
	art := prog.Artifacts()
	for pid, book := range exec.Log().Books {
		n := 0
		for idx, rec := range book.Records {
			if rec.Kind != logging.RecPrelog || n == maxIntervals {
				continue
			}
			n++
			g, err := ctl.Graph(pid, idx)
			if err != nil {
				t.Fatalf("P%d interval %d: %v", pid, idx, err)
			}
			fmt.Fprintf(&sb, "P%d interval %d:\n%s", pid, idx, g)
			if last := g.LastNode(); last != nil {
				sb.WriteString(controller.RenderFragment(g, last.ID, 4))
			}
			if n > 1 {
				continue
			}
			for gid, def := range art.Prog.Globals {
				if def.Kind != bytecode.GlobalVar || def.IsArray {
					continue
				}
				v := replay.InitialGlobals(art.Prog)[gid].Int
				if got, ok := rec.Globals.Get(gid); ok {
					v = got.Int
				}
				wi, err := exec.WhatIf(pid, idx, def.Name, v)
				if err != nil {
					t.Fatalf("P%d what-if %s=%d: %v", pid, def.Name, v, err)
				}
				fmt.Fprintf(&sb, "whatif %s=%d: changed %v, globals %v, err %v, completed %v, %d events\n",
					def.Name, v, wi.ChangedGlobals, wi.Modified.Globals, wi.Modified.Err,
					wi.Modified.Completed, len(wi.Modified.Trace.Events))
				break
			}
		}
	}
	sb.WriteString(exec.RaceReport())
	sb.WriteString(ctl.DeadlockReport())
	dbg, err := exec.Debugger()
	if err != nil {
		t.Fatal(err)
	}
	dbg.Exec(&sb, "where")
	return sb.String()
}

// TestHydrateContract pins what Hydrate rebuilds. A warm cache-loaded
// artifact rebuilds parse through progdb only: after Hydrate its Facts
// stay nil (abstract interpretation does not rerun), Vet serves the
// persisted result, and every debugging-phase answer equals the one a
// full compile gives.
func TestHydrateContract(t *testing.T) {
	t.Setenv("PPD_CACHE_DIR", "")
	dir := t.TempDir()
	for name, src := range cacheTestSources(t) {
		fresh, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: fresh compile: %v", name, err)
		}
		if fresh.Artifacts().Facts == nil {
			t.Fatalf("%s: a full compile must carry its abstract-interpretation facts", name)
		}
		if _, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir}); err != nil {
			t.Fatalf("%s: cold cached compile: %v", name, err)
		}
		warm, err := CompileOpts(name, src, eblock.DefaultConfig(), Options{CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: warm compile: %v", name, err)
		}
		art := warm.Artifacts()
		if err := art.Hydrate(); err != nil {
			t.Fatalf("%s: hydrate: %v", name, err)
		}
		if !art.Hydrated() {
			t.Fatalf("%s: hydrate left the semantic layers unbuilt", name)
		}
		if art.Facts != nil {
			t.Errorf("%s: hydrate reran abstract interpretation (Facts != nil)", name)
		}
		if vet := art.Vet(nil); vet != art.DB.Vet() {
			t.Errorf("%s: Vet(nil) is not the persisted result the database serves", name)
		} else if got, want := vet.Text(), fresh.Vet().Text(); got != want {
			t.Errorf("%s: persisted vet differs from a full compile's:\n got: %s\nwant: %s", name, got, want)
		}
		if got, want := debugView(t, warm), debugView(t, fresh); got != want {
			t.Errorf("%s: debugging-phase answers differ after hydrate:\n got: %s\nwant: %s", name, got, want)
		}
	}
}
