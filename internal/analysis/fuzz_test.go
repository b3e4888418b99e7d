package analysis_test

import (
	"ppd/internal/source"
	"testing"

	"ppd/internal/analysis"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/workloads"
)

// FuzzVet feeds arbitrary source through the full front end
// (lexer → parser → sem → PDG) and, when it compiles, the analysis
// passes: none of it may panic on malformed MPL. The seed corpus is the
// real programs the golden tests cover.
func FuzzVet(f *testing.F) {
	for _, ex := range []string{"deadlock", "flowback", "quickstart", "racedetect", "restore"} {
		src, err := readExampleSource(ex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	for _, wl := range workloads.Standard() {
		f.Add(wl.Src)
	}
	f.Add("shared x;\nfunc main() { print(x); }")
	f.Add("sem m = 1;\nfunc main() { P(m); }")
	f.Add("func main() { spawn main(); }")
	f.Add("func f() { f(); }\nfunc main() { f(); }")
	f.Add("shared a[3];\nchan c[1];\nfunc main() { send(c, a[0]); }")
	f.Fuzz(func(t *testing.T, src string) {
		art, err := compile.Compile(source.NewFile("fuzz.mpl", src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			return // front-end rejection is fine; panics are not
		}
		res := analysis.Analyze(art.PDG, art.Prog, nil)
		_ = res.Text()
		if _, err := res.JSON(); err != nil {
			t.Fatalf("JSON rendering failed on valid program: %v", err)
		}
	})
}
