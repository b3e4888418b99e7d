// Quickstart: compile an MPL program, run it through PPD's three phases,
// and print the flowback fragment at the point of failure.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"ppd"
	"ppd/internal/controller"
	"ppd/internal/eblock"
)

const program = `
// A classic off-by-one: average() divides by the wrong count.
shared data[5];

func fill() {
	var i = 0;
	while (i < 5) {
		data[i] = (i + 1) * 10;
		i = i + 1;
	}
}

func average(n int) int {
	var sum = 0;
	var i = 0;
	while (i < n) {
		sum = sum + data[i];
		i = i + 1;
	}
	return sum / (n - 5);    // BUG: should be sum / n
}

func main() {
	fill();
	print("avg=", average(5));
}
`

func main() {
	// Phase 1 — preparatory: the Compiler/Linker produces the object code,
	// the emulation package, the static graphs, and the program database.
	prog, err := ppd.CompileOpts("quickstart.mpl", program, eblock.DefaultConfig(), ppd.Options{})
	if err != nil {
		log.Fatalf("compile: %v", err)
	}
	// A compile served from the artifact cache (PPD_CACHE_DIR) rebuilds its
	// e-block plan on demand.
	art := prog.Artifacts()
	if err := art.Hydrate(); err != nil {
		log.Fatalf("compile: %v", err)
	}
	fmt.Printf("preparatory phase: %d e-block(s), %d instruction(s)\n\n",
		len(art.Plan.Blocks), art.Prog.NumInstrs())

	// Phase 2 — execution: the object code runs and generates the log.
	exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Output: os.Stdout})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Printf("execution phase: %v (log: %d bytes)\n\n", exec.Err(), exec.Log().SizeBytes())

	// Phase 3 — debugging: the PPD Controller locates the open interval,
	// directs the emulation package to regenerate its trace, and presents
	// the dependence fragment at the failure.
	c := exec.Controller()
	fmt.Print(c.Summary())

	g, _, err := c.CurrentGraph(0)
	if err != nil {
		log.Fatalf("debugging phase: %v", err)
	}
	focus := c.FocusNode(g, 0)
	fmt.Println("\nflowback from the failure (how the bad value was computed):")
	fmt.Print(controller.RenderFragment(g, focus.ID, 4))
}
