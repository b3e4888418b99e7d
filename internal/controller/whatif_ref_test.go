package controller

import (
	"ppd/internal/bytecode"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/replay"
	"ppd/internal/vm"
)

// refWhatIfResult is referenceWhatIf's answer: both sides keep the traces
// the traced replays recorded.
type refWhatIfResult struct {
	Original, Modified *emulation.Result
	ChangedGlobals     []int
}

// referenceWhatIf is the what-if as it was before Controller.WhatIf, kept
// as the oracle: two private emulators, each replay on a fresh, traced VM
// (EmulateFresh under Generic), and the overrides applied to a clone of
// the whole book with a deep copy of the prelog record.
func referenceWhatIf(prog *bytecode.Program, book *logging.Book, prelogIdx int, overrides []replay.Override) (*refWhatIfResult, error) {
	em := emulation.New(prog, book)
	em.Generic = true
	orig, err := em.EmulateFresh(prelogIdx, nil)
	if err != nil {
		return nil, err
	}

	// Clone the book with the prelog modified.
	mod := &logging.Book{PID: book.PID, Records: append([]*logging.Record(nil), book.Records...)}
	pre := *book.Records[prelogIdx]
	pre.Locals = pre.Locals.Clone()
	pre.Globals = pre.Globals.Clone()
	for _, o := range overrides {
		if o.Slot >= 0 {
			pre.Locals.Set(o.Slot, logging.Value{Int: o.Value})
		} else {
			pre.Globals.Set(o.Global, logging.Value{Int: o.Value})
		}
	}
	mod.Records[prelogIdx] = &pre

	em2 := emulation.New(prog, mod)
	em2.Generic = true
	modified, err := em2.EmulateFresh(prelogIdx, nil)
	if err != nil {
		return nil, err
	}

	res := &refWhatIfResult{Original: orig, Modified: modified}
	for gid := range orig.Globals {
		if !refValueEqual(orig.Globals[gid], modified.Globals[gid]) {
			res.ChangedGlobals = append(res.ChangedGlobals, gid)
		}
	}
	return res, nil
}

func refValueEqual(a, b vm.Value) bool {
	if (a.Arr == nil) != (b.Arr == nil) {
		return false
	}
	if a.Arr == nil {
		return a.Int == b.Int
	}
	if len(a.Arr) != len(b.Arr) {
		return false
	}
	for i := range a.Arr {
		if a.Arr[i] != b.Arr[i] {
			return false
		}
	}
	return true
}
