package replay

import (
	"bytes"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/source"
	"ppd/internal/vm"
)

func logged(t *testing.T, src string, opts vm.Options) (*compile.Artifacts, *vm.VM) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	_ = v.Run()
	return art, v
}

func TestRestoreAtPostlogs(t *testing.T) {
	src := `
var g;
func step(v int) { g = g + v; }
func main() {
	step(10);
	step(100);
	step(1000);
}`
	art, v := logged(t, src, vm.Options{})
	book := v.Log.Books[0]
	gid := art.Info.GlobalByName("g").GlobalID

	wants := []int64{10, 110, 1110}
	for i, want := range wants {
		snap, err := RestoreAtPostlog(art.Prog, book, i)
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if got := snap.Globals[gid].Int; got != want {
			t.Errorf("after postlog %d: g = %d, want %d", i, got, want)
		}
	}
	if _, err := RestoreAtPostlog(art.Prog, book, 99); err == nil {
		t.Error("expected error for out-of-range postlog index")
	}
}

func TestRestoreMatchesLiveState(t *testing.T) {
	// The final restoration must equal the VM's actual final globals.
	src := `
var a = 1;
shared arr[3];
func f(i int, v int) { arr[i] = v; a = a * 2; }
func main() {
	f(0, 7);
	f(1, 8);
	f(2, 9);
}`
	art, v := logged(t, src, vm.Options{})
	book := v.Log.Books[0]
	snap := RestoreAt(art.Prog, book, len(book.Records))
	for gid := range art.Prog.Globals {
		got, want := snap.Globals[gid], v.Globals[gid]
		if got.IsArray() != want.IsArray() {
			t.Fatalf("global %d shape mismatch", gid)
		}
		if got.IsArray() {
			for i := range got.Arr {
				if got.Arr[i] != want.Arr[i] {
					t.Errorf("global %d[%d] = %d, want %d", gid, i, got.Arr[i], want.Arr[i])
				}
			}
		} else if got.Int != want.Int {
			t.Errorf("global %d = %d, want %d", gid, got.Int, want.Int)
		}
	}
}

func TestRestoreSeesOtherProcessWrites(t *testing.T) {
	// Main's own postlogs never wrote sv; the shared prelog folding must
	// still expose the worker's write at the restoration point.
	src := `
shared sv;
sem done = 0;
func w() { sv = 5; V(done); }
func main() {
	spawn w();
	P(done);
	print(sv);
}`
	art, v := logged(t, src, vm.Options{Quantum: 1})
	book := v.Log.Books[0]
	gid := art.Info.GlobalByName("sv").GlobalID
	snap := RestoreAt(art.Prog, book, len(book.Records))
	if snap.Globals[gid].Int != 5 {
		t.Errorf("restored sv = %d, want 5 (via shared prelog)", snap.Globals[gid].Int)
	}
}

func TestResumeFrom(t *testing.T) {
	src := `
var g;
func phase1() { g = 41; }
func phase2() { g = g + 1; print(g); }
func main() {
	phase1();
	phase2();
}`
	art, v := logged(t, src, vm.Options{})
	book := v.Log.Books[0]
	// Restore right after phase1's postlog, then re-run phase2.
	snap, err := RestoreAtPostlog(art.Prog, book, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	machine, err := ResumeFrom(art.Prog, snap, "phase2", nil, vm.Options{Output: &out})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out.String() != "42\n" {
		t.Errorf("resumed output = %q, want 42", out.String())
	}
	gid := art.Info.GlobalByName("g").GlobalID
	if machine.Globals[gid].Int != 42 {
		t.Errorf("resumed g = %d", machine.Globals[gid].Int)
	}
	if _, err := ResumeFrom(art.Prog, snap, "nosuch", nil, vm.Options{}); err == nil {
		t.Error("expected error for unknown function")
	}
}
