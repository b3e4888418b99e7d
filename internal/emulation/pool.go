package emulation

import (
	"sync"

	"ppd/internal/bytecode"
	"ppd/internal/obs"
	"ppd/internal/vm"
)

// DefaultPoolBound is the per-pool cap on idle replay contexts. The
// controller replaces the default pool with a shared one sized to the
// CPU count, so this only governs emulators used standalone.
const DefaultPoolBound = 4

// Context is one reusable replay context: a ModeEmulate VM plus the
// scratch buffers an emulation needs (frame slots, coverage marks, hook
// state). A context is checked out of a Pool for exactly one EmulateInto
// or EmulateFresh call at a time; across calls the VM's globals, process,
// root frame, and slot arrays are recycled, so steady-state replay
// allocates only what the interval itself demands (trace growth,
// re-executed callee frames).
type Context struct {
	machine *vm.VM
	h       hooks      // faithful replay (EmulateInto)
	fh      freshHooks // what-if replay (EmulateFresh)
	slots   []vm.Value
	cover   []bool
}

// Pool hands out replay contexts for one program. It is bounded: at most
// `bound` idle contexts are retained, so a server holding many sessions
// does not hoard a VM per past query — excess contexts are dropped for the
// GC. All methods are safe for concurrent use (a controller's concurrent
// queries emulate intervals in parallel).
type Pool struct {
	prog *bytecode.Program

	mu   sync.Mutex
	free []*Context

	bound int

	// Resolved once at construction (nil counters are no-ops).
	cHits, cMisses *obs.Counter
	cFast, cCold   *obs.Counter
}

// NewPool returns a bounded context pool for prog, registering its
// debug.emu.* counters on sink (nil sink disables them).
func NewPool(prog *bytecode.Program, bound int, sink *obs.Sink) *Pool {
	if bound <= 0 {
		bound = DefaultPoolBound
	}
	return &Pool{
		prog:    prog,
		bound:   bound,
		cHits:   sink.Counter("debug.emu.pool.hits"),
		cMisses: sink.Counter("debug.emu.pool.misses"),
		cFast:   sink.Counter("debug.emu.dispatch.fast"),
		cCold:   sink.Counter("debug.emu.dispatch.cold"),
	}
}

// get checks out a context, building a fresh one on pool miss.
func (p *Pool) get() *Context {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.cHits.Inc()
		return c
	}
	p.mu.Unlock()
	p.cMisses.Inc()
	return &Context{machine: vm.New(p.prog, vm.Options{Mode: vm.ModeEmulate})}
}

// put returns a context; beyond the bound it is dropped.
func (p *Pool) put(c *Context) {
	p.mu.Lock()
	if len(p.free) < p.bound {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

// note folds one run's dispatch-path split into the pool's counters.
func (p *Pool) note(fast, cold int64) {
	p.cFast.Add(fast)
	p.cCold.Add(cold)
}
