package vm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// goldenCases is the byte-identity matrix: every standard workload plus a
// sync-heavy sharded shape, across seeds and quanta that change the
// interleaving. The encoded ModeLog output for each case is pinned in
// testdata/golden; any change to the execution phase must keep the logs
// byte-identical (regenerate deliberately with PPD_UPDATE_GOLDEN=1).
func goldenCases() []struct {
	name    string
	wl      *workloads.Workload
	cfg     eblock.Config
	seed    int64
	quantum int
} {
	return []struct {
		name    string
		wl      *workloads.Workload
		cfg     eblock.Config
		seed    int64
		quantum int
	}{
		{"matmul_s0_q5", workloads.Matmul(16), eblock.DefaultConfig(), 0, 5},
		{"matmul_s3_q40", workloads.Matmul(16), eblock.DefaultConfig(), 3, 40},
		{"prodcons_s0_q5", workloads.ProdCons(600), eblock.DefaultConfig(), 0, 5},
		{"prodcons_s3_q40", workloads.ProdCons(600), eblock.DefaultConfig(), 3, 40},
		{"tokenring_s0_q5", workloads.TokenRing(4, 100), eblock.DefaultConfig(), 0, 5},
		{"tokenring_s3_q40", workloads.TokenRing(4, 100), eblock.DefaultConfig(), 3, 40},
		{"divide_s0_q5", workloads.Divide(11), eblock.DefaultConfig(), 0, 5},
		{"divide_s3_q40", workloads.Divide(11), eblock.DefaultConfig(), 3, 40},
		{"sharded_s0_q3", workloads.Sharded(4, 40), eblock.Config{}, 0, 3},
	}
}

func goldenLogBytes(t *testing.T, wl *workloads.Workload, cfg eblock.Config, seed int64, quantum int) []byte {
	t.Helper()
	art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: cfg})
	if err != nil {
		t.Fatalf("compile %s: %v", wl.Name, err)
	}
	v := New(art.Prog, Options{Mode: ModeLog, Seed: seed, Quantum: quantum})
	if err := v.Run(); err != nil {
		t.Fatalf("run %s: %v", wl.Name, err)
	}
	var buf bytes.Buffer
	if err := v.Log.Write(&buf); err != nil {
		t.Fatalf("write log %s: %v", wl.Name, err)
	}
	return buf.Bytes()
}

// TestLogGoldenByteIdentical pins the execution phase's ModeLog output
// against the pre-optimization logs: interpreter or logging changes must
// not alter a single byte at any seed or quantum.
func TestLogGoldenByteIdentical(t *testing.T) {
	update := os.Getenv("PPD_UPDATE_GOLDEN") != ""
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenLogBytes(t, tc.wl, tc.cfg, tc.seed, tc.quantum)
			path := filepath.Join("testdata", "golden", tc.name+".ppdlog")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with PPD_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("log bytes differ from golden %s: got %d bytes, want %d bytes (first diff at %d)",
					path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestLogDeterministic guards the golden matrix's premise: the same seed
// and quantum reproduce the same interleaving and therefore the same log.
func TestLogDeterministic(t *testing.T) {
	tc := goldenCases()[8] // sharded: the most scheduling-sensitive case
	a := goldenLogBytes(t, tc.wl, tc.cfg, tc.seed, tc.quantum)
	b := goldenLogBytes(t, tc.wl, tc.cfg, tc.seed, tc.quantum)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed+quantum produced different logs")
	}
}

var _ = fmt.Sprintf // keep fmt for debugging helpers
