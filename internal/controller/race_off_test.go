//go:build !race

package controller

// The traced what-if reference's share of TestWhatIfMatchesReference:
// intervals swept per program and instructions replayed per program.
const (
	refIntervals = 32
	refBudget    = 7_000_000
)
