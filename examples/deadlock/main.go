// Deadlock: a classic lock-order inversion between two processes, analyzed
// with the parallel dynamic graph (§6: "The parallel dynamic graph can also
// help the user analyze the causes of deadlocks"). The report names each
// blocked process, the semaphore it waits on, and the likely holder —
// enough to read the cycle directly.
//
//	go run ./examples/deadlock
package main

import (
	"context"
	"fmt"
	"log"

	"ppd"
	"ppd/internal/eblock"
)

const program = `
sem disk = 1;
sem net = 1;
sem started = 0;

func transfer() {
	P(net);             // worker takes net...
	V(started);
	P(disk);            // ...then wants disk (held by main): stuck
	V(disk);
	V(net);
}

func main() {
	P(disk);            // main takes disk...
	spawn transfer();
	P(started);         // make sure the worker holds net first
	P(net);             // ...then wants net (held by worker): stuck
	V(net);
	V(disk);
}
`

func main() {
	prog, err := ppd.CompileOpts("deadlock.mpl", program, eblock.Config{}, ppd.Options{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Quantum: 1})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Printf("execution ended: %v\n\n", exec.Err())

	c := exec.Controller()
	fmt.Print(c.Summary())
	fmt.Println()
	fmt.Print(c.DeadlockReport())
}
