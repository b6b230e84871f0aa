// Package observatory is the live observation plane over the batch
// instrumentation the repo already has: it turns telemetry counters
// (internal/telemetry) and the flight recorder (internal/flight) — both of
// which could previously only be inspected after a run ended — into a
// streaming system an operator can watch while the run is still going.
//
// Three pieces compose:
//
//   - Pump: a sampling loop that runs as a dedicated simulated thread,
//     waking every Config.Interval virtual cycles, diffing the cumulative
//     telemetry snapshot against the previous sample, pulling the flight
//     records written since then, and running the conflict-graph classifier
//     incrementally over a sliding window — so pathologies (abort cycles,
//     starvation chains, friendly fire) surface as they emerge, not in a
//     post-mortem dump.
//   - Frame: the immutable product of one pump tick — cumulative and
//     per-interval snapshots, derived rates, the windowed conflict-graph
//     report, and the recent flight records. Frames are never mutated after
//     publication, which is what makes concurrent consumers safe.
//   - Bus: a lock-free publication path. Publish stores the latest frame in
//     an atomic cell and fans it out to subscriber channels without
//     blocking (slow subscribers drop frames, counted). HTTP handlers and
//     watch printers read frames from the bus; they never touch the
//     registry or the recorder, which stay owned by the simulation.
//
// The pump is attached per run (harness.RunConfig.Observe); the bus and any
// servers or watchers outlive individual runs, so one observatory can watch
// a whole sweep. A nil *Pump or *Bus is the disabled state, mirroring the
// telemetry/flight discipline: every method nil-checks and the hot path
// pays nothing when observation is off.
package observatory

import (
	"sync"
	"sync/atomic"

	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// Meta identifies the run a frame was sampled from.
type Meta struct {
	System   string `json:"system"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Cores    int    `json:"cores"`
}

// Frame is one published observation: everything a consumer needs, frozen.
type Frame struct {
	Meta  Meta
	Index int // interval ordinal within the run, 0-based
	Final bool

	Start, End sim.Time // the interval [Start, End]

	// Cum is the cumulative telemetry snapshot at End; Delta is Cum minus
	// the previous frame's Cum (the per-interval activity).
	Cum   telemetry.Snapshot
	Delta telemetry.Snapshot

	// Recent is the sliding window of flight records the report was
	// computed over (bounded by DefaultWindow); Report is the windowed
	// conflict-graph analysis, nil when the run has no flight recorder.
	// FlightGap flags that ring wrap-around overwrote records between this
	// frame's pull and the previous one (the window has a hole).
	Recent    []flight.Rec
	Report    *conflictgraph.Report
	FlightGap bool

	// Causal is the windowed attempt-DAG analysis (critical path and blame),
	// nil when the run has no flight recorder.
	Causal *causal.Report

	// Gov is the resilience governor's annotation — the ladder level and
	// health classification in force while this interval ran. Nil on
	// ungoverned runs. Filled by the pump's annotator before publication,
	// so consumers see it as part of the immutable frame.
	Gov *GovSample
}

// GovSample is the governor's per-frame annotation (see internal/governor;
// the type lives here so the observatory does not depend on its consumer).
type GovSample struct {
	Level       int    `json:"level"`
	Rungs       int    `json:"rungs"`
	State       string `json:"state"`
	Transitions int    `json:"transitions"`
}

// IntervalCycles returns the interval's virtual-time width.
func (f *Frame) IntervalCycles() uint64 {
	if f == nil || f.End <= f.Start {
		return 0
	}
	return f.End - f.Start
}

// CommitRate returns the interval's committed transactions per million
// cycles.
func (f *Frame) CommitRate() float64 {
	w := f.IntervalCycles()
	if w == 0 {
		return 0
	}
	return float64(f.Delta.Total(telemetry.CtrTxnCommits)) / float64(w) * 1e6
}

// AbortRatio returns the interval's aborted attempts over all attempts
// (in [0,1]; 0 when the interval saw no attempts).
func (f *Frame) AbortRatio() float64 {
	c := f.Delta.Total(telemetry.CtrTxnCommits)
	a := f.Delta.Total(telemetry.CtrTxnAborts)
	if c+a == 0 {
		return 0
	}
	return float64(a) / float64(c+a)
}

// SigFPRate returns the interval's observed signature false-positive rate.
func (f *Frame) SigFPRate() float64 {
	obs, _ := f.Delta.SigFPRates()
	return obs
}

// Pathologies returns the windowed report's per-kind pathology counts
// (empty when no report or none detected).
func (f *Frame) Pathologies() map[string]uint64 {
	if f == nil || f.Report == nil {
		return nil
	}
	return f.Report.PathologyCounts()
}

// DefaultInterval is the default sampling period in virtual cycles: fine
// enough to resolve the onset of a pathology, coarse enough that a
// paper-scale run produces tens of frames, not thousands.
const DefaultInterval sim.Time = 100_000

// DefaultWindow caps the sliding flight-record window the incremental
// classifier runs over.
const DefaultWindow = 16384

// Config parameterizes a pump.
type Config struct {
	// Interval is the sampling period in virtual cycles (<=0 selects
	// DefaultInterval).
	Interval sim.Time
	// Bus, if non-nil, receives every frame the pump produces.
	Bus *Bus
	// Retain keeps every produced frame in memory for post-run retrieval
	// via Frames (the HTML report generator's collection mode).
	Retain bool
	// OnFlush, if non-nil, runs inside the simulation on the first tick
	// after RequestFlush — the race-free place to write partial artifacts
	// when the process is being interrupted.
	OnFlush func(*Frame)
}

// Pump samples one run. It is bound to a machine's telemetry registry and
// flight recorder by the harness (Bind) and ticked from a dedicated
// simulated thread, so all its mutable state is owned by the simulation;
// the only cross-goroutine entry points are RequestFlush (an atomic flag)
// and the bus it publishes to.
type Pump struct {
	cfg Config

	tel  *telemetry.Registry
	fl   *flight.Recorder
	meta Meta

	prev    telemetry.Snapshot
	prevAt  sim.Time
	lastSeq uint64
	recent  []flight.Rec
	index   int

	frames   []*Frame
	flushReq atomic.Bool
	annot    func(*Frame)
}

// SetAnnotator registers a hook that may decorate each frame (e.g. the
// governor's ladder state) after it is built but before it is retained or
// published. It runs inside the simulation, on the pump's thread.
func (p *Pump) SetAnnotator(fn func(*Frame)) {
	if p == nil {
		return
	}
	p.annot = fn
}

// NewPump returns a pump with the given configuration.
func NewPump(cfg Config) *Pump {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	return &Pump{cfg: cfg}
}

// Interval returns the sampling period.
func (p *Pump) Interval() sim.Time {
	if p == nil {
		return DefaultInterval
	}
	return p.cfg.Interval
}

// Bus returns the bus frames are published to (nil when none).
func (p *Pump) Bus() *Bus {
	if p == nil {
		return nil
	}
	return p.cfg.Bus
}

// Bind points the pump at one run's instrumentation and resets its
// interval state. The same pump may be re-bound run after run (a sweep);
// retained frames accumulate across runs, distinguished by their Meta.
func (p *Pump) Bind(tel *telemetry.Registry, fl *flight.Recorder, meta Meta) {
	if p == nil {
		return
	}
	p.tel, p.fl, p.meta = tel, fl, meta
	p.prev = telemetry.Snapshot{}
	p.prevAt = 0
	p.lastSeq = 0
	p.recent = nil
	p.index = 0
}

// Tick samples one interval ending at now and publishes the frame. It must
// run inside the simulation (it reads live instrumentation). Safe and free
// on a nil pump.
func (p *Pump) Tick(now sim.Time) *Frame {
	return p.sample(now, false)
}

// Finish publishes the run's final frame (Final=true) at now.
func (p *Pump) Finish(now sim.Time) *Frame {
	return p.sample(now, true)
}

func (p *Pump) sample(now sim.Time, final bool) *Frame {
	if p == nil {
		return nil
	}
	cum := p.tel.Snapshot()
	f := &Frame{
		Meta:  p.meta,
		Index: p.index,
		Final: final,
		Start: p.prevAt,
		End:   now,
		Cum:   cum,
		Delta: cum.Diff(p.prev),
	}
	if p.fl.Enabled() {
		fresh, gap := p.fl.SnapshotSince(p.lastSeq)
		f.FlightGap = gap
		if n := len(fresh); n > 0 {
			p.lastSeq = fresh[n-1].Seq
		}
		p.recent = append(p.recent, fresh...)
		if over := len(p.recent) - DefaultWindow; over > 0 {
			p.recent = append(p.recent[:0], p.recent[over:]...)
		}
		// Copy the window into the frame: p.recent keeps sliding, the
		// frame must not.
		f.Recent = append([]flight.Rec(nil), p.recent...)
		f.Report = conflictgraph.Analyze(f.Recent, conflictgraph.Options{Cores: p.meta.Cores})
		f.Causal = causal.Analyze(f.Recent, causal.Options{Cores: p.meta.Cores})
	}
	p.prev = cum
	p.prevAt = now
	p.index++
	if p.annot != nil {
		p.annot(f)
	}
	if p.cfg.Retain {
		p.frames = append(p.frames, f)
	}
	p.cfg.Bus.Publish(f)
	if p.flushReq.CompareAndSwap(true, false) && p.cfg.OnFlush != nil {
		p.cfg.OnFlush(f)
	}
	return f
}

// RequestFlush asks the pump to invoke Config.OnFlush with the next frame
// it produces. Unlike every other pump method it is safe to call from any
// goroutine — it is how a signal handler reaches into the simulation
// without racing it.
func (p *Pump) RequestFlush() {
	if p == nil {
		return
	}
	p.flushReq.Store(true)
}

// Frames returns the retained frames (Config.Retain). Call only after the
// run has finished.
func (p *Pump) Frames() []*Frame {
	if p == nil {
		return nil
	}
	return p.frames
}

// Final returns the last retained frame, nil when none.
func (p *Pump) Final() *Frame {
	if p == nil || len(p.frames) == 0 {
		return nil
	}
	return p.frames[len(p.frames)-1]
}

// Bus fans frames out to subscribers. The publish path is lock-free: the
// latest frame lives in an atomic cell, the subscriber list is copy-on-write
// (writers swap a fresh slice under a mutex; Publish only atomically loads
// it), and channel sends never block — a full subscriber drops the frame
// and the drop is counted.
type Bus struct {
	latest    atomic.Pointer[Frame]
	subs      atomic.Pointer[[]chan *Frame]
	mu        sync.Mutex // serializes Subscribe/cancel (list writers only)
	published atomic.Uint64
	dropped   atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Publish stores f as the latest frame and offers it to every subscriber
// without blocking. Safe and free on a nil bus; a nil frame is ignored.
func (b *Bus) Publish(f *Frame) {
	if b == nil || f == nil {
		return
	}
	b.latest.Store(f)
	b.published.Add(1)
	if subs := b.subs.Load(); subs != nil {
		for _, ch := range *subs {
			select {
			case ch <- f:
			default:
				b.dropped.Add(1)
			}
		}
	}
}

// Latest returns the most recently published frame (nil before the first).
func (b *Bus) Latest() *Frame {
	if b == nil {
		return nil
	}
	return b.latest.Load()
}

// Published returns how many frames have been published.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Dropped returns how many frame deliveries were refused by full
// subscriber channels.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Subscribe registers a subscriber with the given channel buffer and
// returns its channel plus a cancel function. The channel is never closed
// (a racing Publish may still hold the old list); consumers stop on cancel,
// on a Final frame, or on their own signal.
func (b *Bus) Subscribe(buf int) (<-chan *Frame, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan *Frame, buf)
	b.mu.Lock()
	old := b.subs.Load()
	var next []chan *Frame
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, ch)
	b.subs.Store(&next)
	b.mu.Unlock()

	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		cur := b.subs.Load()
		if cur == nil {
			return
		}
		pruned := make([]chan *Frame, 0, len(*cur))
		for _, c := range *cur {
			if c != ch {
				pruned = append(pruned, c)
			}
		}
		b.subs.Store(&pruned)
	}
	return ch, cancel
}
