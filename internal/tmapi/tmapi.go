// Package tmapi defines the runtime-agnostic interface between workloads
// and transactional-memory runtimes. The paper's workloads (Table 3b) are
// written once against Txn/Thread and run unmodified on FlexTM, RTM-F,
// RSTM, TL2, and CGL, exactly as the evaluation requires.
package tmapi

import (
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// Txn is the view a transaction body has of memory. Loads and stores are
// transactional: their effects are isolated until commit and are rolled
// back on abort.
type Txn interface {
	// Load returns the word at a with transactional semantics.
	Load(a memory.Addr) uint64
	// Store writes the word at a with transactional semantics.
	Store(a memory.Addr, v uint64)
	// Abort aborts the current transaction and retries it from the top.
	Abort()
}

// Thread is one simulated application thread, bound to a core for the
// duration of a run.
type Thread interface {
	// Atomic executes body as a transaction, retrying on aborts until it
	// commits. Nested calls follow the subsumption model: an inner Atomic
	// merges into the outer transaction.
	Atomic(body func(t Txn))
	// Load performs an ordinary (non-transactional) load.
	Load(a memory.Addr) uint64
	// Store performs an ordinary (non-transactional) store.
	Store(a memory.Addr, v uint64)
	// Work advances the thread's clock by d cycles of computation.
	Work(d sim.Time)
	// Rand returns the thread's deterministic random source.
	Rand() *sim.Rand
	// Core returns the core the thread runs on.
	Core() int
	// Ctx returns the simulation context.
	Ctx() *sim.Ctx
}

// Runtime is a TM system: it binds threads to cores and reports statistics.
type Runtime interface {
	// Name identifies the system in output ("FlexTM", "TL2", ...).
	Name() string
	// Bind attaches a simulated thread running on core to the runtime.
	// Seeds derive from the core id so runs are deterministic.
	Bind(ctx *sim.Ctx, core int) Thread
	// Stats returns cumulative runtime statistics.
	Stats() Stats
}

// Stats aggregates transaction outcomes across a run.
type Stats struct {
	Commits uint64
	Aborts  uint64
	// Escalations counts Atomic sections that tripped the liveness watchdog
	// and were finished in serialized-irrevocable fallback mode. Only
	// runtimes with an escalation path (FlexTM) populate it.
	Escalations uint64
	// ConflictDegrees counts committed transactions by conflict degree:
	// ConflictDegrees[d] is how many had to resolve conflicts with d
	// distinct processors (the metric of Figure 4's table). A degree names
	// the other processors of a machine of at most 64, so it is below 64.
	// Only FlexTM populates it.
	ConflictDegrees [64]uint64
}

// AbortRate returns aborts per commit.
func (s Stats) AbortRate() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// MedianMaxConflicts returns the median and maximum conflict degree over
// committed transactions (the Md/Mx columns of Figure 4's table); the
// median of an even count is the lower one.
func (s Stats) MedianMaxConflicts() (md, mx int) {
	var n uint64
	for d, c := range s.ConflictDegrees {
		if c > 0 {
			n, mx = n+c, d
		}
	}
	var cum uint64
	for d, c := range s.ConflictDegrees {
		if cum += c; 2*cum >= n {
			return d, mx
		}
	}
	return 0, mx
}

// AbortError is the sentinel carried by the panic that unwinds a
// transaction body on abort. Runtimes recover it in their retry loops;
// anything else is re-panicked.
type AbortError struct {
	// UserRequested distinguishes Txn.Abort from conflict-induced aborts.
	UserRequested bool
}

// Error implements error for diagnostics; AbortError normally never
// escapes a runtime.
func (a AbortError) Error() string { return "transaction aborted" }
