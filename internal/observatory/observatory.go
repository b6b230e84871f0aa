// Package observatory is the live observation plane over the batch
// instrumentation the repo already has: it turns telemetry counters
// (internal/telemetry) and the flight recorder (internal/flight) — both of
// which could previously only be inspected after a run ended — into a
// streaming system an operator can watch while the run is still going.
//
// Two pieces compose:
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
//     report, and the recent flight records. The governor's annotation is
//     the only write after a frame is built, and it lands before any other
//     reader sees the frame, which is what makes the HTTP server's
//     concurrent handlers safe.
//
// The pump is the only place frames go out. On each tick it hands the
// frame, inside the simulation, first to the run's governor annotation
// (bound per run) and then to its readers in Config order: the terminal
// watcher, a frame collector, and the HTTP server's latest-frame cell,
// which is the one reader that hands the frame to other goroutines. No
// frame can be dropped or reordered on its way to a reader, and no reader
// races the run.
//
// The pump is attached per run (harness.RunConfig.Observe) and re-bound run
// after run, so one pump and its readers can watch a whole sweep. A nil
// *Pump is the disabled state, mirroring the telemetry/flight discipline:
// every method nil-checks and the hot path pays nothing when observation is
// off.
package observatory

import (
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
	// ungoverned runs. Filled by the governor's annotation before any pump
	// reader sees the frame, so readers see it as part of the immutable
	// frame.
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
	// Readers take every frame the pump produces, in order, inside the
	// simulation on the pump's tick, after the run's governor annotation.
	Readers []func(*Frame)
}

// Pump samples one run. It is bound to a machine's telemetry registry and
// flight recorder by the harness (Bind) and ticked from a dedicated
// simulated thread, so all its mutable state is owned by the simulation.
type Pump struct {
	cfg Config

	tel  *telemetry.Registry
	fl   *flight.Recorder
	meta Meta

	annotate func(*Frame)

	prev    telemetry.Snapshot
	prevAt  sim.Time
	lastSeq uint64
	recent  []flight.Rec
	index   int
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

// Bind points the pump at one run's instrumentation and governor
// annotation (nil on an ungoverned run) and resets its interval state. The
// same pump may be re-bound run after run (a sweep); its readers see every
// run's frames, distinguished by their Meta.
func (p *Pump) Bind(tel *telemetry.Registry, fl *flight.Recorder, meta Meta, annotate func(*Frame)) {
	if p == nil {
		return
	}
	p.tel, p.fl, p.meta, p.annotate = tel, fl, meta, annotate
	p.prev = telemetry.Snapshot{}
	p.prevAt = 0
	p.lastSeq = 0
	p.recent = nil
	p.index = 0
}

// Tick samples one interval ending at now and hands the frame out. It must
// run inside the simulation (it reads live instrumentation). Safe and free
// on a nil pump.
func (p *Pump) Tick(now sim.Time) *Frame {
	return p.sample(now, false)
}

// Finish hands out the run's final frame (Final=true) at now.
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
	if p.annotate != nil {
		p.annotate(f)
	}
	for _, read := range p.cfg.Readers {
		read(f)
	}
	return f
}
