package ppd

import (
	"errors"

	"ppd/internal/vm"
)

// Sentinel errors of the session-centric API. Callers branch on them with
// errors.Is; every error returned by this package that falls into one of
// these classes wraps the corresponding sentinel, usually with detail
// (which option field, which session ID). internal/server maps each class
// to a stable HTTP status code — see the package doc of internal/server
// for the table.
var (
	// ErrInvalidOptions wraps every Options validation failure. The
	// message always names the offending field and its value, e.g.
	// "Options.Quantum = -3".
	ErrInvalidOptions = errors.New("ppd: invalid options")

	// ErrSessionNotFound reports a session ID that is not (or no longer)
	// live — never created, already closed, or expired by TTL eviction.
	ErrSessionNotFound = errors.New("ppd: session not found")

	// ErrSessionBusy reports a session-exclusive operation (re-run, close)
	// attempted while another operation holds the session.
	ErrSessionBusy = errors.New("ppd: session busy")

	// ErrSessionClosed reports a query on a Session after Close: its
	// emulation cache has been released and no further debugging-phase
	// work is possible.
	ErrSessionClosed = errors.New("ppd: session closed")

	// ErrServerSaturated reports admission-control backpressure: the
	// serving daemon's worker pool and its bounded queue are both full,
	// or the session table is at capacity. Clients should retry later.
	ErrServerSaturated = errors.New("ppd: server saturated")

	// ErrCompile classifies every preparatory-phase failure from
	// CompileOpts (and therefore OpenSession): the program itself is
	// wrong. Run-phase infrastructure errors (cancellation, log-sink
	// failures) never carry it, so callers can tell "fix the program"
	// apart from "the run didn't happen".
	ErrCompile = errors.New("ppd: compile failed")

	// ErrBudget reports a replay stopped by the VM's instruction budget
	// (200M steps). No call returns it: a what-if whose override keeps
	// the interval from ending (a raised loop bound) reports it in
	// WhatIfResult.Modified.Err, where errors.Is finds it.
	ErrBudget = vm.ErrBudget
)

// compileErr tags a preparatory-phase failure so errors.Is(err,
// ErrCompile) holds while the message (and the wrapped chain underneath)
// stays exactly what the compiler produced.
type compileErr struct{ err error }

func (e *compileErr) Error() string        { return e.err.Error() }
func (e *compileErr) Unwrap() error        { return e.err }
func (e *compileErr) Is(target error) bool { return target == ErrCompile }
