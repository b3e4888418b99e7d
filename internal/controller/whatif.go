package controller

import (
	"fmt"
	"slices"

	"ppd/internal/logging"
	"ppd/internal/replay"
	"ppd/internal/vm"
)

// WhatIf re-executes the e-block instance at record prelogIdx of process
// pid twice — once as logged, once with the overrides applied to its
// prelog — and reports which globals end the interval differently (§5.7:
// "change the values of variables and re-start the program from the same
// point"). Both replays run in what-if mode (Emulator.EmulateFresh:
// callees re-execute, only recv values come from the log) on the
// controller's shared replay contexts, untraced, so a what-if costs the
// instructions it runs and a fixed set of allocations. An override that
// keeps the replay from ending stops at the VM's instruction budget, and
// errors.Is(Modified.Err, vm.ErrBudget) holds.
//
// The overrides go on a copy of the prelog record; the log is never
// modified. Neither replay is cached: the result depends on the
// overrides, and the interval cache holds traced replays only.
func (c *Controller) WhatIf(pid, prelogIdx int, ov []replay.Override) (*replay.WhatIfResult, error) {
	if pid < 0 || pid >= len(c.emus) {
		return nil, fmt.Errorf("controller: no process %d", pid)
	}
	em := c.emus[pid]
	orig, err := em.EmulateFresh(prelogIdx, nil)
	if err != nil {
		return nil, err
	}
	pre := *em.Book.Records[prelogIdx] // a prelog: EmulateFresh checked
	pre.Locals, pre.Globals = overridden(pre.Locals, pre.Globals, ov)
	mod, err := em.EmulateFresh(prelogIdx, &pre)
	if err != nil {
		return nil, err
	}
	res := &replay.WhatIfResult{Original: &orig.Outcome, Modified: &mod.Outcome}
	for gid := range orig.Globals {
		if !sameValue(orig.Globals[gid], mod.Globals[gid]) {
			res.ChangedGlobals = append(res.ChangedGlobals, gid)
		}
	}
	return res, nil
}

// overridden applies the overrides to a prelog's bindings. A side the
// overrides touch is copied before its first change, so the logged record
// keeps its own; the copy is shallow because an override replaces whole
// values and the replay never writes through a logged array.
func overridden(locals, globals logging.Pairs, ov []replay.Override) (logging.Pairs, logging.Pairs) {
	ownL, ownG := false, false
	for _, o := range ov {
		v := logging.Value{Int: o.Value}
		if o.Slot >= 0 {
			if !ownL {
				locals, ownL = slices.Clone(locals), true
			}
			locals.Set(o.Slot, v)
			continue
		}
		if !ownG {
			globals, ownG = slices.Clone(globals), true
		}
		globals.Set(o.Global, v)
	}
	return locals, globals
}

// sameValue reports whether two end-of-interval values are equal: scalars
// by value, arrays element by element.
func sameValue(a, b vm.Value) bool {
	if (a.Arr == nil) != (b.Arr == nil) {
		return false
	}
	if a.Arr == nil {
		return a.Int == b.Int
	}
	return slices.Equal(a.Arr, b.Arr)
}
