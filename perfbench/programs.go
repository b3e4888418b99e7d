package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"ppd"
	"ppd/internal/eblock"
	"ppd/internal/mplgen"
	"ppd/internal/workloads"
)

// size scales the inputs: full for measurement, tiny for the smoke test.
type size struct {
	tiny   bool
	minOps int // operations a run must complete for its p99 to hold ten samples
}

var (
	fullSize = size{minOps: 1000}
	tinySize = size{tiny: true, minOps: 1}
)

// program is one generated MPL input.
type program struct {
	name    string
	src     string
	quantum int
	output  string // expected output; "" where the run's output is not fixed
}

// opSeed derives operation i's scheduler seed from the run seed, so the
// operation sequence is fixed per seed and independent of timing.
func opSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed ^ int64(i)*0x5851F42D4C957F2D)).Int63()
}

// families are the seven sync-heavy workload families at fixed sizes:
// racy and race-free, lock-guarded, message-passing and sharded
// synchronization.
func families(sz size) []program {
	n := func(full, tiny int) int {
		if sz.tiny {
			return tiny
		}
		return full
	}
	wls := []*workloads.Workload{
		workloads.RacyCounter(4, n(100, 4), false),
		workloads.RacyTicker(4, n(60, 3)),
		workloads.Sharded(4, n(40, 2)),
		workloads.TokenRing(4, n(40, 2)),
		workloads.ProdCons(n(150, 5)),
		workloads.GuardedCounter(4, n(60, 3)),
		workloads.Relay(3, n(40, 2)),
	}
	var out []program
	for _, wl := range wls {
		out = append(out, program{name: wl.Name, src: wl.Src, quantum: 3, output: wl.Output})
	}
	return out
}

// triagePrograms is the triage mix: the seven families plus four mplgen
// racy and four mplgen parallel programs drawn from the seed. Only the
// generated programs and the schedules vary with the seed. A generated
// program's op time follows its size (most of the op is hydrating its
// compiled artifact), and mplgen's sizes range over a factor of four, so
// the draw keeps only programs of genMinBytes to genMaxBytes: every
// seed then gets a mix of about the same cost.
func triagePrograms(seed int64, sz size) []program {
	out := families(sz)
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 4; k++ {
		out = append(out,
			program{name: fmt.Sprintf("mplgen-racy-%d", k), src: generateInBand(rng, mplgen.RacyConfig()), quantum: 3},
			program{name: fmt.Sprintf("mplgen-par-%d", k), src: generateInBand(rng, mplgen.ParallelConfig()), quantum: 3})
	}
	return out
}

// genMinBytes and genMaxBytes bound the source length of the generated
// triage programs: around the median mplgen program, wide enough that
// about a third of the draws fall in it.
const genMinBytes, genMaxBytes = 1800, 2200

// generateInBand draws mplgen programs from rng until one's source length
// is within [genMinBytes, genMaxBytes].
func generateInBand(rng *rand.Rand, cfg mplgen.Config) string {
	for {
		if src := mplgen.Generate(rng.Int63(), cfg); len(src) >= genMinBytes && len(src) <= genMaxBytes {
			return src
		}
	}
}

// coldCompile compiles every program into the artifact cache at dir.
func coldCompile(progs []program, dir string) error {
	for _, p := range progs {
		if _, err := ppd.CompileOpts(p.name+".mpl", p.src, eblock.DefaultConfig(), ppd.Options{CacheDir: dir}); err != nil {
			return fmt.Errorf("compile %s: %w", p.name, err)
		}
	}
	return nil
}

// globalName returns the name resolver race reports use.
func globalName(prog *ppd.Program) func(int) string {
	globals := prog.Artifacts().Prog.Globals
	return func(gid int) string { return globals[gid].Name }
}

// sourceRev identifies the benchmarked source tree: the VCS revision when
// the binary was built inside a repository, else a hash of the Go sources
// under the working directory (the benchmark usually runs in an exported
// checkout, which is not a repository).
func sourceRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not identify the source
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return fmt.Sprintf("src-%016x", h.Sum64())
}

// hashOf hashes an answer the oracle checks need later, so the benchmark
// keeps 8 bytes per answer instead of the answer itself (64-bit FNV-1a).
func hashOf(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
