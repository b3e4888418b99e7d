package ppd_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"ppd"
)

// ExampleExecution_Stats runs all three phases and reads selected counters
// from the merged snapshot. Counter values that depend only on the program
// (process count, race count) are deterministic; timings are not, so the
// example prints none.
func ExampleExecution_Stats() {
	sess, err := ppd.OpenSession("stats.mpl", `
sem done = 0;
func w() { V(done); }
func main() { spawn w(); P(done); }`, ppd.Options{Output: io.Discard})
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	exec := sess.Execution()
	_ = exec.Races() // exercise the debugging phase so debug.*/race.* report

	st := exec.Stats()
	fmt.Println("processes:", st.Counter("exec.procs"))
	fmt.Println("races:", st.Counter("race.races"))
	fmt.Println("detector runs:", st.Counter("race.runs"))
	fmt.Println("log bytes recorded:", st.Counter("exec.log.bytes") > 0)
	// Output:
	// processes: 2
	// races: 0
	// detector runs: 1
	// log bytes recorded: true
}

// ExampleOpenSession bundles all three phases behind one handle: compile,
// logged run, and a what-if replay that patches a global before re-executing
// the failing region. Close releases the emulation cache.
func ExampleOpenSession() {
	sess, err := ppd.OpenSession("crash.mpl", `
var g = 1;
func f(a int) int { g = g + a; return g * 2; }
func main() { print(f(20) / (g - 21)); }`, ppd.Options{Output: io.Discard})
	if err != nil {
		panic(err)
	}
	defer sess.Close()

	fmt.Println("failed:", sess.Failed() != nil)
	wi, err := sess.WhatIf(0, -1, "g", 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("original fails:", wi.Original.Err != nil)
	fmt.Println("patched g=5 succeeds:", wi.Modified.Err == nil)
	// Output:
	// failed: true
	// original fails: true
	// patched g=5 succeeds: true
}

// ExampleOptions_trace streams phase-scope events while the execution and
// debugging phases run. Each line carries an elapsed timestamp, so the
// example checks for the scope markers rather than printing the stream.
func ExampleOptions_trace() {
	var trace bytes.Buffer
	sess, err := ppd.OpenSession("trace.mpl", `func main() { print(6 * 7); }`,
		ppd.Options{Output: io.Discard, Trace: &trace})
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	_, _ = sess.Races()

	fmt.Println(strings.Contains(trace.String(), "begin exec.run"))
	fmt.Println(strings.Contains(trace.String(), "end   debug.build"))
	// Output:
	// true
	// true
}
