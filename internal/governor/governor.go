// Package governor is the closed-loop resilience controller over a FlexTM
// run: it consumes the per-interval Frames the observatory pump publishes,
// classifies each interval into a health state, and walks a configurable
// mitigation ladder — contention-manager swaps, back-off scaling, admission
// control, signature widening, and finally forced serialization — raising a
// rung when the run stays unhealthy and lowering one when it stays healthy,
// with hysteresis and cooldowns so the controller cannot flap.
//
// The governor runs as a dedicated simulated thread (Spawn, called right
// after the observatory pump's Spawn, so at every shared tick the pump
// publishes frame k before the governor reads it). Every knob it turns is a
// Go-side runtime field consulted behind a single branch, and the
// controller itself consumes no randomness, so:
//
//   - a run with the governor disabled is bit-identical to one where the
//     package does not exist, and
//   - a governed run is a pure function of (seed, config): the same inputs
//     replay the same transitions, fault injection included.
//
// Classification is per-interval, not per-window: the pump's sliding
// conflict-graph report keeps a resolved pathology visible for many
// intervals after it cleared (the window slides only while records arrive),
// so the governor re-analyzes just the records whose timestamps fall inside
// the frame's own interval. A calm interval therefore reads as healthy the
// moment the pathology stops, which is what makes de-escalation converge.
package governor

import (
	"fmt"
	"strconv"
	"strings"

	"flextm/internal/cm"
	"flextm/internal/conflictgraph"
	"flextm/internal/core"
	"flextm/internal/flight"
	"flextm/internal/observatory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// State classifies one observed interval.
type State int

// Health states, ordered by diagnostic priority: when several apply, the
// most specific (earliest) wins.
const (
	Healthy State = iota
	AbortCycling
	Starving
	SigSaturated
	OverflowThrashing
	Contended
	NumStates
)

var stateNames = [NumStates]string{
	Healthy:           "healthy",
	AbortCycling:      "abort-cycling",
	Starving:          "starving",
	SigSaturated:      "sig-saturated",
	OverflowThrashing: "overflow-thrashing",
	Contended:         "contended",
}

// String returns the state's stable kebab-case name.
func (s State) String() string {
	if s >= 0 && s < NumStates {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// ActionKind identifies one mitigation rung type.
type ActionKind int

// The ladder's rung types, in the order the default ladder applies them.
const (
	// ActCM swaps the contention-manager policy live.
	ActCM ActionKind = iota
	// ActBackoff left-shifts every retry back-off window.
	ActBackoff
	// ActAdmit caps concurrent Atomic sections with a token gate.
	ActAdmit
	// ActSigWiden rehashes every access signature into a wider geometry.
	ActSigWiden
	// ActSerialize forces every new section through the
	// serialized-irrevocable fallback.
	ActSerialize
)

// Action is one rung of the mitigation ladder.
type Action struct {
	Kind ActionKind
	// CM names the policy for ActCM (see cm.ByName).
	CM string
	// Shift is the absolute back-off boost for ActBackoff.
	Shift uint
	// Limit is the admission cap for ActAdmit (0 = half the bound threads,
	// minimum 1).
	Limit int
	// Scale multiplies the signature width for ActSigWiden (0 = 4x).
	Scale int
}

// Spec returns the rung's canonical spec-string form.
func (a Action) Spec() string {
	switch a.Kind {
	case ActCM:
		return "cm:" + a.CM
	case ActBackoff:
		return fmt.Sprintf("backoff:%d", a.Shift)
	case ActAdmit:
		if a.Limit <= 0 {
			return "admit:auto"
		}
		return fmt.Sprintf("admit:%d", a.Limit)
	case ActSigWiden:
		return fmt.Sprintf("sig:%d", a.Scale)
	case ActSerialize:
		return "serialize"
	}
	return fmt.Sprintf("Action(%d)", int(a.Kind))
}

// LadderSpec renders a ladder as the comma-joined spec string ParseLadder
// accepts.
func LadderSpec(ladder []Action) string {
	parts := make([]string, len(ladder))
	for i, a := range ladder {
		parts[i] = a.Spec()
	}
	return strings.Join(parts, ",")
}

// ParseLadder parses a comma-separated rung list: "cm:NAME", "backoff:N",
// "admit:N" (or "admit:auto" for half the worker count), "sig:N",
// "serialize".
func ParseLadder(spec string) ([]Action, error) {
	var ladder []Action
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(tok, ":")
		var a Action
		switch name {
		case "cm":
			if _, ok := cm.ByName(arg); !ok {
				return nil, fmt.Errorf("governor: unknown contention manager %q", arg)
			}
			a = Action{Kind: ActCM, CM: arg}
		case "backoff":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("governor: bad backoff shift %q", arg)
			}
			a = Action{Kind: ActBackoff, Shift: uint(n)}
		case "admit":
			if arg == "auto" || !hasArg {
				a = Action{Kind: ActAdmit}
				break
			}
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("governor: bad admission cap %q", arg)
			}
			a = Action{Kind: ActAdmit, Limit: n}
		case "sig":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 2 {
				return nil, fmt.Errorf("governor: bad signature scale %q", arg)
			}
			a = Action{Kind: ActSigWiden, Scale: n}
		case "serialize":
			if hasArg {
				return nil, fmt.Errorf("governor: serialize takes no argument")
			}
			a = Action{Kind: ActSerialize}
		default:
			return nil, fmt.Errorf("governor: unknown rung %q", tok)
		}
		ladder = append(ladder, a)
	}
	if len(ladder) == 0 {
		return nil, fmt.Errorf("governor: empty ladder spec")
	}
	return ladder, nil
}

// DefaultLadder is the stock mitigation sequence: calm the policy first
// (Polka's karma-weighted back-off breaks symmetric duels Aggressive/Timid
// cannot), then stretch back-off, then shed load, then widen signatures,
// and only then serialize.
func DefaultLadder() []Action {
	return []Action{
		{Kind: ActCM, CM: "Polka"},
		{Kind: ActBackoff, Shift: 3},
		{Kind: ActAdmit},
		{Kind: ActSigWiden, Scale: 4},
		{Kind: ActSerialize},
	}
}

// Thresholds are the per-interval classification cut-offs.
type Thresholds struct {
	// AbortRatio marks an interval Contended at or above this
	// aborts/attempts ratio (default 0.5).
	AbortRatio float64
	// SigFP marks an interval SigSaturated at or above this audited
	// false-positive rate (default 0.05), given at least SigFPMinTests
	// ground-truth-negative membership tests (default 32).
	SigFP         float64
	SigFPMinTests uint64
	// OTSpillPerCommit marks an interval OverflowThrashing at or above this
	// many overflow-table spills per commit (default 16).
	OTSpillPerCommit float64
}

// Config parameterizes a governor.
type Config struct {
	// Ladder is the mitigation sequence (nil selects DefaultLadder).
	Ladder []Action
	// RaiseAfter is how many consecutive unhealthy intervals precede a
	// raise (<=0 selects 2); LowerAfter how many consecutive healthy
	// intervals precede a lower (<=0 selects 4).
	RaiseAfter int
	LowerAfter int
	// Cooldown is how many intervals after any transition the governor
	// holds still, letting the mitigation take effect before judging it
	// (<0 selects 2; 0 is honored).
	Cooldown int
	// Thresholds override the classification cut-offs (zero fields select
	// the defaults above).
	Thresholds Thresholds
}

// Transition is one recorded ladder move.
type Transition struct {
	At     sim.Time
	Frame  int
	From   int
	To     int
	State  State
	Action string // spec of the rung applied (raise) or undone (lower)
}

// undoRec is what a raise saves so the matching lower can revert it.
type undoRec struct {
	kind       ActionKind
	prevCM     cm.Manager
	prevShift  uint
	prevLimit  int
	prevSerial bool
	prevSig    signature.Config
	sigApplied bool
}

// Governor walks the ladder for one run. All state is owned by the
// simulation thread that calls Observe; nothing here is safe for concurrent
// use, and nothing here needs to be.
type Governor struct {
	cfg Config

	rt      *core.Runtime
	threads int
	tel     *telemetry.Registry
	fl      *flight.Recorder

	level       int
	unhealthy   int
	healthy     int
	cooldown    int
	lastState   State
	lastFrame   int
	undo        []undoRec
	transitions []Transition
}

// New returns a governor with defaults applied.
func New(cfg Config) *Governor {
	if cfg.Ladder == nil {
		cfg.Ladder = DefaultLadder()
	}
	if cfg.RaiseAfter <= 0 {
		cfg.RaiseAfter = 2
	}
	if cfg.LowerAfter <= 0 {
		cfg.LowerAfter = 4
	}
	if cfg.Cooldown < 0 {
		cfg.Cooldown = 2
	}
	if cfg.Thresholds.AbortRatio == 0 {
		cfg.Thresholds.AbortRatio = 0.5
	}
	if cfg.Thresholds.SigFP == 0 {
		cfg.Thresholds.SigFP = 0.05
	}
	if cfg.Thresholds.SigFPMinTests == 0 {
		cfg.Thresholds.SigFPMinTests = 32
	}
	if cfg.Thresholds.OTSpillPerCommit == 0 {
		cfg.Thresholds.OTSpillPerCommit = 16
	}
	return &Governor{cfg: cfg, lastFrame: -1}
}

// Config returns the effective (default-filled) configuration.
func (g *Governor) Config() Config { return g.cfg }

// Bind points the governor at one run's runtime. threads is the worker
// count (the admission rung's default cap derives from it). Must be called
// before the run starts.
func (g *Governor) Bind(rt *core.Runtime, threads int) {
	g.rt = rt
	g.threads = threads
	g.tel = rt.System().Telemetry()
	g.fl = rt.System().Flight()
}

// Spawn adds the governor's thread to e. It paces itself by pump's interval
// and must be spawned after the pump's thread: at every shared virtual
// instant the engine resumes equal-time threads in spawn order, so the pump
// publishes frame k before the governor reads it. Once running reports
// false it observes tail more intervals, matching the pump's calm tail.
func (g *Governor) Spawn(e *sim.Engine, pump *observatory.Pump, running func() bool, tail int) {
	bus, iv := pump.Bus(), pump.Interval()
	e.Spawn("governor", 0, func(ctx *sim.Ctx) {
		for {
			if !running() {
				if tail == 0 {
					break
				}
				tail--
			}
			ctx.Advance(iv)
			ctx.Sync()
			g.Observe(bus.Latest())
		}
	})
}

// Level returns the current ladder level (0 = no mitigation in force;
// level n means rungs [0, n) are applied).
func (g *Governor) Level() int {
	if g == nil {
		return 0
	}
	return g.level
}

// LastState returns the most recent interval classification.
func (g *Governor) LastState() State {
	if g == nil {
		return Healthy
	}
	return g.lastState
}

// Transitions returns the recorded ladder moves, in order.
func (g *Governor) Transitions() []Transition {
	if g == nil {
		return nil
	}
	return g.transitions
}

// TransitionLog renders the transitions in a canonical text form, one line
// each — the bit-compare artifact of the determinism guarantee.
func (g *Governor) TransitionLog() string {
	if g == nil {
		return ""
	}
	var b strings.Builder
	for _, tr := range g.transitions {
		fmt.Fprintf(&b, "t=%d frame=%d level %d->%d state=%s action=%s\n",
			tr.At, tr.Frame, tr.From, tr.To, tr.State, tr.Action)
	}
	return b.String()
}

// Annotate attaches the governor's current state to a frame about to be
// published (observatory.Pump.SetAnnotator). It runs before Observe sees
// the frame, so the sample reflects the level in force while the frame's
// interval ran.
func (g *Governor) Annotate(f *observatory.Frame) {
	if g == nil || f == nil {
		return
	}
	f.Gov = &observatory.GovSample{
		Level:       g.level,
		Rungs:       len(g.cfg.Ladder),
		State:       g.lastState.String(),
		Transitions: len(g.transitions),
	}
}

// Classify maps one frame to a health state using only the frame's own
// interval: the Delta counters, and the flight records timestamped inside
// [Start, End]. Exported for tests and the watch display.
func (g *Governor) Classify(f *observatory.Frame) State {
	if f == nil {
		return Healthy
	}
	th := g.cfg.Thresholds
	// Interval-local conflict-graph pathologies. The frame's Report spans
	// the whole sliding window; re-analyzing just this interval's records
	// makes resolved pathologies age out immediately.
	if f.Report != nil {
		recs := f.Recent
		lo := 0
		for lo < len(recs) && recs[lo].At < f.Start {
			lo++
		}
		if lo < len(recs) {
			rep := conflictgraph.Analyze(recs[lo:], conflictgraph.Options{Cores: f.Meta.Cores})
			if rep.Has(conflictgraph.AbortCycle) {
				return AbortCycling
			}
			if rep.Has(conflictgraph.StarvationChain) {
				return Starving
			}
		}
	}
	if tests := f.Delta.Total(telemetry.CtrSigFalsePos) + f.Delta.Total(telemetry.CtrSigTrueNeg); tests >= th.SigFPMinTests {
		fp := float64(f.Delta.Total(telemetry.CtrSigFalsePos)) / float64(tests)
		if fp >= th.SigFP {
			return SigSaturated
		}
	}
	if commits := f.Delta.Total(telemetry.CtrTxnCommits); commits > 0 {
		if spills := f.Delta.Total(telemetry.CtrOTSpill); float64(spills)/float64(commits) >= th.OTSpillPerCommit {
			return OverflowThrashing
		}
	}
	if f.AbortRatio() >= th.AbortRatio {
		return Contended
	}
	return Healthy
}

// Observe feeds the governor one published frame. It classifies the
// interval, updates the hysteresis counters, and — outside cooldown — moves
// one rung up or down. Frames already seen (the bus republishes the latest
// on every read) and nil frames are ignored. Must run inside the
// simulation, on the governor's own thread.
func (g *Governor) Observe(f *observatory.Frame) {
	if g == nil || f == nil || g.rt == nil || f.Index == g.lastFrame {
		return
	}
	g.lastFrame = f.Index
	state := g.Classify(f)
	g.lastState = state
	if state == Healthy {
		g.healthy++
		g.unhealthy = 0
	} else {
		g.unhealthy++
		g.healthy = 0
	}
	if g.cooldown > 0 {
		g.cooldown--
		return
	}
	switch {
	case state != Healthy && g.unhealthy >= g.cfg.RaiseAfter && g.level < len(g.cfg.Ladder):
		g.raise(f, state)
	case state == Healthy && g.healthy >= g.cfg.LowerAfter && g.level > 0:
		g.lower(f, state)
	}
}

// raise applies the next rung.
func (g *Governor) raise(f *observatory.Frame, state State) {
	a := g.cfg.Ladder[g.level]
	g.undo = append(g.undo, g.apply(a))
	g.step(f, state, g.level+1, a.Spec())
	g.unhealthy = 0
}

// lower reverts the topmost applied rung.
func (g *Governor) lower(f *observatory.Frame, state State) {
	u := g.undo[len(g.undo)-1]
	g.undo = g.undo[:len(g.undo)-1]
	a := g.cfg.Ladder[g.level-1]
	g.revert(u)
	g.step(f, state, g.level-1, a.Spec())
	g.healthy = 0
}

// step records one transition (log, flight, telemetry) and starts the
// cooldown.
func (g *Governor) step(f *observatory.Frame, state State, to int, spec string) {
	from := g.level
	g.level = to
	g.cooldown = g.cfg.Cooldown
	g.transitions = append(g.transitions, Transition{
		At: f.End, Frame: f.Index, From: from, To: to, State: state, Action: spec,
	})
	g.tel.Inc(0, telemetry.CtrGovStep)
	g.fl.Rec(0, f.End, flight.GovStep, from, uint8(to), 0)
}

// apply turns one rung on and returns what the matching revert needs.
func (g *Governor) apply(a Action) undoRec {
	rt := g.rt
	u := undoRec{kind: a.Kind}
	switch a.Kind {
	case ActCM:
		u.prevCM = rt.CM()
		if m, ok := cm.ByName(a.CM); ok {
			rt.SetCM(m)
		}
	case ActBackoff:
		u.prevShift = rt.BackoffBoost()
		rt.SetBackoffBoost(a.Shift)
	case ActAdmit:
		u.prevLimit = rt.AdmitLimit()
		limit := a.Limit
		if limit <= 0 {
			limit = g.threads / 2
			if limit < 1 {
				limit = 1
			}
		}
		rt.SetAdmitLimit(limit)
	case ActSigWiden:
		sys := rt.System()
		u.prevSig = sys.Config().Sig
		scale := a.Scale
		if scale < 2 {
			scale = 4
		}
		next := u.prevSig
		next.Bits *= scale
		u.sigApplied = sys.WidenSignatures(next) == nil
	case ActSerialize:
		u.prevSerial = rt.ForceSerial()
		rt.SetForceSerial(true)
	}
	return u
}

// revert undoes one rung. A signature rehash back to the original geometry
// can itself be refused (summary signatures installed in the meantime); the
// wider filters are conservative, so staying wide is safe and the level
// still lowers.
func (g *Governor) revert(u undoRec) {
	rt := g.rt
	switch u.kind {
	case ActCM:
		rt.SetCM(u.prevCM)
	case ActBackoff:
		rt.SetBackoffBoost(u.prevShift)
	case ActAdmit:
		rt.SetAdmitLimit(u.prevLimit)
	case ActSigWiden:
		if u.sigApplied {
			_ = rt.System().WidenSignatures(u.prevSig)
		}
	case ActSerialize:
		rt.SetForceSerial(u.prevSerial)
	}
}
