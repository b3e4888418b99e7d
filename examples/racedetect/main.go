// Racedetect: builds the parallel dynamic graph (§6.1) for a three-process
// program in the shape of the paper's Fig 6.1 and §6.3 example — SV written
// by P1 and read by P3 under proper ordering, plus an unsynchronized write
// by P2 — and shows how ordering concurrent events exposes the race
// (Definitions 6.1–6.4).
//
//	go run ./examples/racedetect
package main

import (
	"context"
	"fmt"
	"log"

	"ppd"
	"ppd/internal/eblock"
	"ppd/internal/race"
)

const program = `
shared SV;
sem ordered = 0;
sem done = 0;

func p1() {
	SV = 10;            // write on edge e1
	V(ordered);         // orders e1 before p3's read
	V(done);
}

func p2() {
	SV = 20;            // unsynchronized write on edge e2: THE RACE
	V(done);
}

func p3() {
	P(ordered);
	print("p3 sees SV=", SV);   // read on edge e3
	V(done);
}

func main() {
	spawn p1();
	spawn p2();
	spawn p3();
	P(done);
	P(done);
	P(done);
}
`

func main() {
	prog, err := ppd.CompileOpts("race.mpl", program, eblock.Config{}, ppd.Options{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	fmt.Println("running with three different interleavings; the race is in the")
	fmt.Println("program, so every execution instance's graph exposes it:")
	for _, seed := range []int64{0, 7, 23} {
		exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Seed: seed, Quantum: 1})
		if err == nil {
			err = exec.Err()
		}
		if err != nil {
			log.Fatalf("run: %v", err)
		}
		c := exec.Controller()
		races := c.Races()

		fmt.Printf("\n--- seed %d: parallel dynamic graph ---\n", seed)
		fmt.Print(c.Parallel().String())
		fmt.Print(c.RaceReport())

		// The §6.3 ordered pair must never be reported: p1's write edge is
		// ordered before p3's read edge through the semaphore.
		for _, r := range races {
			pids := [2]int{r.E1.PID, r.E2.PID}
			if pids == [2]int{1, 3} && r.Kind != race.WriteWrite {
				// p1 is PID 1, p3 is PID 3; their write->read pair is
				// ordered, so a report would be a false positive.
				log.Fatalf("false positive: ordered p1/p3 pair reported racy")
			}
		}
	}
}
