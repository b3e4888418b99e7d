//go:build race

package controller

// The traced what-if reference's share of TestWhatIfMatchesReference,
// cut under the race detector, which slows the reference about eightfold:
// intervals swept per program and instructions replayed per program.
const (
	refIntervals = 8
	refBudget    = 400_000
)

// raceEnabled reports a build under the race detector, which changes
// allocation counts.
const raceEnabled = true
