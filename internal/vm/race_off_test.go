//go:build !race

package vm_test

// raceEnabled reports whether the test binary runs under the race
// detector, which instruments allocations and so moves allocs/op.
const raceEnabled = false
