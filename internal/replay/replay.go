// Package replay implements §5.7: restoration of program state from
// postlogs. "The accumulation of the information carried by all the
// postlogs from postlog(1) up to postlog(i) is the same as the information
// carried by the program state at the time postlog(i) is made" — so the
// global state at any completed interval boundary can be rebuilt by folding
// postlogs in order, without re-executing anything.
//
// On top of restoration, the package defines the paper's what-if
// experiments: "the user could change the values of variables and re-start
// the program from the same point to see the effect of these changes" —
// an Override names one changed value, and Controller.WhatIf re-runs one
// e-block instance from its prelog with the overrides applied and reports
// how the outcome changes in a WhatIfResult.
package replay

import (
	"fmt"

	"ppd/internal/bytecode"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/vm"
)

// Snapshot is a restored global state.
type Snapshot struct {
	Globals []logging.Value
	// UpTo is the record index (exclusive) whose postlogs were folded.
	UpTo int
}

// InitialGlobals builds the program's initial global values (the state at
// process start).
func InitialGlobals(prog *bytecode.Program) []logging.Value {
	out := make([]logging.Value, len(prog.Globals))
	for i, g := range prog.Globals {
		if g.Kind == bytecode.GlobalVar {
			if g.IsArray {
				out[i] = logging.Value{Arr: make([]int64, g.Len)}
			} else {
				out[i] = logging.Value{Int: g.Init}
			}
		}
	}
	return out
}

// RestoreAt rebuilds the global state as of the k-th record (exclusive) of
// the process's book by folding every postlog and shared prelog before it.
// Shared prelogs are folded too: they snapshot shared values written by
// *other* processes, which postlogs of this process alone cannot supply.
func RestoreAt(prog *bytecode.Program, book *logging.Book, k int) *Snapshot {
	if k > len(book.Records) {
		k = len(book.Records)
	}
	// Fold by reference (records are immutable once written), cloning only
	// the final values — restoration cost is then linear in the record
	// count, not in total bytes folded.
	s := &Snapshot{Globals: InitialGlobals(prog), UpTo: k}
	for _, r := range book.Records[:k] {
		switch r.Kind {
		case logging.RecPostlog, logging.RecShPrelog, logging.RecPrelog:
			for gid, val := range r.Globals.All() {
				s.Globals[gid] = val
			}
		}
	}
	for gid := range s.Globals {
		s.Globals[gid] = s.Globals[gid].Clone()
	}
	return s
}

// RestoreAtPostlog restores the state right after the i-th postlog (0-based
// among postlogs) of the process.
func RestoreAtPostlog(prog *bytecode.Program, book *logging.Book, i int) (*Snapshot, error) {
	seen := 0
	for ri, r := range book.Records {
		if r.Kind == logging.RecPostlog {
			if seen == i {
				return RestoreAt(prog, book, ri+1), nil
			}
			seen++
		}
	}
	return nil, fmt.Errorf("replay: process %d has only %d postlog(s)", book.PID, seen)
}

// Override names one value change for a what-if run.
type Override struct {
	// Global overrides a global by GlobalID when Slot < 0; otherwise Slot
	// overrides a frame slot of the e-block's function.
	Global int
	Slot   int
	Value  int64
}

// WhatIfResult compares the original interval with the re-run.
// Controller.WhatIf produces it; each side is the outcome of an untraced
// replay, so it holds end state and failure, never a trace.
type WhatIfResult struct {
	Original *emulation.Outcome
	Modified *emulation.Outcome

	// ChangedGlobals lists GlobalIDs whose end-of-interval value differs.
	ChangedGlobals []int
}

// ResumeFrom restarts live execution from a restored snapshot: a fresh VM
// whose globals are the snapshot and whose main process begins at the given
// function (the paper's "re-start the program from the same point"). The
// typical target is the function whose interval follows the restoration
// point.
func ResumeFrom(prog *bytecode.Program, snap *Snapshot, fn string, args []int64, opts vm.Options) (*vm.VM, error) {
	f := prog.FuncByName(fn)
	if f == nil {
		return nil, fmt.Errorf("replay: no function %q", fn)
	}
	machine := vm.New(prog, opts)
	for gid, val := range snap.Globals {
		machine.Globals[gid] = val.Clone()
	}
	if err := machine.RunFunc(f, args); err != nil {
		return machine, err
	}
	return machine, nil
}
