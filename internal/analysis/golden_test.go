package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ppd/internal/analysis"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// goldenProgram is one entry of the diagnostics matrix: every example,
// every workload shape, every testdata program.
type goldenProgram struct {
	name string // golden file stem and compile filename
	src  string
}

var programRE = regexp.MustCompile("(?s)const program = `(.*?)`")

// readExampleSource extracts the MPL program embedded in an example's
// main.go.
func readExampleSource(example string) (string, error) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", example, "main.go"))
	if err != nil {
		return "", err
	}
	m := programRE.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("example %s: no `const program` block", example)
	}
	return string(m[1]), nil
}

func exampleSource(t *testing.T, example string) string {
	t.Helper()
	src, err := readExampleSource(example)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	for _, ex := range []string{"deadlock", "flowback", "quickstart", "racedetect", "restore"} {
		out = append(out, goldenProgram{name: "example_" + ex, src: exampleSource(t, ex)})
	}
	wls := workloads.Standard()
	wls = append(wls,
		workloads.Sharded(4, 40),
		workloads.RacyCounter(3, 25, false),
		workloads.RacyCounter(3, 25, true),
		workloads.GuardedCounter(3, 25),
	)
	for _, wl := range wls {
		name := "workload_" + strings.NewReplacer("-", "_", "x", "x").Replace(wl.Name)
		out = append(out, goldenProgram{name: name, src: wl.Src})
	}
	for _, td := range []string{"quick", "crash", "racy",
		"absint_divzero", "absint_divsafe", "absint_bounds", "absint_guarded"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", td+".mpl"))
		if err != nil {
			t.Fatalf("read testdata %s: %v", td, err)
		}
		out = append(out, goldenProgram{name: "testdata_" + td, src: string(data)})
	}
	return out
}

func vetText(t *testing.T, name, src string) string {
	t.Helper()
	art, err := compile.Compile(source.NewFile(name+".mpl", src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return art.Vet(nil).Text()
}

// TestVetGolden pins the exact `ppd vet` text output for every program in
// examples/, internal/workloads, and testdata/. Regenerate deliberately
// with PPD_UPDATE_GOLDEN=1.
func TestVetGolden(t *testing.T) {
	update := os.Getenv("PPD_UPDATE_GOLDEN") != ""
	for _, gp := range goldenPrograms(t) {
		gp := gp
		t.Run(gp.name, func(t *testing.T) {
			got := vetText(t, gp.name, gp.src)
			path := filepath.Join("testdata", "golden", gp.name+".vet")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with PPD_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("vet output differs from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestVetAcceptance pins the behaviors the golden matrix must never
// drift away from: the deadlock example is flagged with a lock-cycle
// diagnostic carrying source positions, and quickstart stays clean under
// -strict (zero warnings; the abstract interpreter's "possible division
// by zero" info on the example's intentional bug line is allowed — and
// wanted, since it points at the very division the debugger then traces).
func TestVetAcceptance(t *testing.T) {
	dead := vetText(t, "deadlock", exampleSource(t, "deadlock"))
	if !strings.Contains(dead, "[lock-cycle]") {
		t.Errorf("deadlock example not flagged with a lock-cycle diagnostic:\n%s", dead)
	}
	if !regexp.MustCompile(`deadlock\.mpl:\d+:\d+`).MatchString(dead) {
		t.Errorf("lock-cycle diagnostic carries no source position:\n%s", dead)
	}
	if !strings.Contains(dead, "while holding") {
		t.Errorf("lock-cycle diagnostic should explain the held-acquire edges:\n%s", dead)
	}
	art, err := compile.Compile(source.NewFile("quickstart.mpl", exampleSource(t, "quickstart")), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := art.Vet(nil).Counts(); w != 0 {
		t.Errorf("quickstart must report zero warnings, got:\n%s", art.Vet(nil).Text())
	}
}

// TestVetResultPersisted checks the program-database persistence contract:
// the artifacts' Vet memoizes into DB and repeated calls share one result.
func TestVetResultPersisted(t *testing.T) {
	art, err := compile.Compile(source.NewFile("racy.mpl", exampleSource(t, "racedetect")), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if art.DB.Vet() != nil {
		t.Fatal("Vet result present before any analysis ran")
	}
	r1 := art.Vet(nil)
	if art.DB.Vet() != r1 {
		t.Fatal("Vet result not persisted into the program database")
	}
	calls := 0
	r2 := art.DB.EnsureVet(func() *analysis.Result { calls++; return nil })
	if r2 != r1 || calls != 0 {
		t.Fatal("EnsureVet recomputed despite a cached result")
	}
}
