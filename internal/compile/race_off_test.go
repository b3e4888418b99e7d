//go:build !race

package compile

// raceEnabled reports a build under the race detector, which changes
// allocation counts.
const raceEnabled = false
