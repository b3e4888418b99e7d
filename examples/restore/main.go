// Restore: demonstrates §5.7 — rebuilding the program state at any postlog
// from the log alone, re-starting execution from a restored snapshot, and
// running a what-if experiment (change a value in a prelog, re-execute the
// interval, compare outcomes) to confirm a suspected bug fix before
// touching the source.
//
//	go run ./examples/restore
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ppd"
	"ppd/internal/eblock"
	"ppd/internal/replay"
	"ppd/internal/vm"
)

const program = `
var balance = 100;
var rate = 0;            // BUG: should be 5

func deposit(amount int) {
	balance = balance + amount;
}

func applyInterest() {
	balance = balance + balance * rate / 100;
}

func report() {
	print("balance=", balance);
}

func main() {
	deposit(50);
	applyInterest();
	report();
}
`

func main() {
	prog, err := ppd.CompileOpts("bank.mpl", program, eblock.Config{}, ppd.Options{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Output: os.Stdout})
	if err == nil {
		err = exec.Err()
	}
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	c := exec.Controller()
	art := c.Art // hydrated: the symbol table and e-block plan are present
	book := exec.Log().Books[0]
	gid := art.Info.GlobalByName("balance").GlobalID

	// 1. Restore the state after each completed interval.
	fmt.Println("\nstate restoration from postlogs (§5.7):")
	for i := 0; ; i++ {
		snap, err := replay.RestoreAtPostlog(art.Prog, book, i)
		if err != nil {
			break
		}
		fmt.Printf("  after postlog %d: balance=%d\n", i, snap.Globals[gid].Int)
	}

	// 2. Re-start execution from a restored point: re-run report() against
	// the state as of the first postlog (right after deposit).
	snap, err := replay.RestoreAtPostlog(art.Prog, book, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nre-running report() from the state after deposit():")
	fmt.Print("  ")
	if _, err := replay.ResumeFrom(art.Prog, snap, "report", nil, vm.Options{Output: os.Stdout}); err != nil {
		log.Fatal(err)
	}

	// 3. What-if: would rate=5 have produced interest? Re-execute
	// applyInterest's interval with the prelog's rate overridden.
	blk := art.Plan.ByFunc["applyInterest"]
	idx := c.Emulator(0).PrelogIndices(int(blk.ID))[0]
	res, err := exec.WhatIf(0, idx, "rate", 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhat-if: applyInterest with rate=5 instead of the logged 0:")
	fmt.Printf("  original  balance after interval: %d\n", res.Original.Globals[gid].Int)
	fmt.Printf("  modified  balance after interval: %d\n", res.Modified.Globals[gid].Int)
	for _, cg := range res.ChangedGlobals {
		fmt.Printf("  changed: %s\n", art.Prog.Globals[cg].Name)
	}
}
