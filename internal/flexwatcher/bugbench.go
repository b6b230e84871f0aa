package flexwatcher

import (
	"fmt"

	"flextm/internal/memory"
	"flextm/internal/rig"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// Program is one BugBench-style test program with a planted memory bug
// (Table 4b). Run executes the program through the given harness; Watch
// registers the FlexWatcher recipe for its bug class.
type Program struct {
	Name string
	Bug  string // BO (buffer overflow), ML (memory leak), IV (invariant violation)
	// Iterations scales run length.
	Iterations int
	// setup allocates program state; run executes one iteration.
	setup func(p *Prog, w *Watcher) *progState
	run   func(p *Prog, st *progState, i int)
}

// progState carries per-program addresses.
type progState struct {
	bufs    []memory.Addr
	bufLen  int
	extra   memory.Addr
	invAddr memory.Addr
}

// Programs returns the five Table 4(b) analogues. Each plants the paper's
// bug class with an access profile chosen to mirror the original's
// malloc count and memory-access density.
func Programs() []Program {
	return []Program{
		{
			// bc: arithmetic on heap arrays; dense memory traffic, rare
			// off-by-N writes past the array end.
			Name: "BC-BO", Bug: "BO", Iterations: 3000,
			setup: func(p *Prog, w *Watcher) *progState {
				st := &progState{bufLen: 32}
				for i := 0; i < 8; i++ {
					buf := p.sys.Alloc().Alloc(st.bufLen + memory.LineWords)
					if w != nil {
						w.GuardBuffer(buf, st.bufLen)
					}
					st.bufs = append(st.bufs, buf)
				}
				return st
			},
			run: func(p *Prog, st *progState, i int) {
				buf := st.bufs[i%len(st.bufs)]
				idx := i % st.bufLen
				if i%200 == 199 {
					idx = st.bufLen + i%4 // overflow into the guard
				}
				p.Store(buf+memory.Addr(idx), uint64(i))
				p.Load(buf + memory.Addr((idx*7)%st.bufLen))
			},
		},
		{
			// gzip: window-buffer compression; compute between accesses.
			Name: "Gzip-BO", Bug: "BO", Iterations: 3000,
			setup: func(p *Prog, w *Watcher) *progState {
				st := &progState{bufLen: 128}
				buf := p.sys.Alloc().Alloc(st.bufLen + memory.LineWords)
				if w != nil {
					w.GuardBuffer(buf, st.bufLen)
				}
				st.bufs = []memory.Addr{buf}
				return st
			},
			run: func(p *Prog, st *progState, i int) {
				buf := st.bufs[0]
				idx := (i * 13) % st.bufLen
				if i%500 == 499 {
					idx = st.bufLen + 1
				}
				v := p.Load(buf + memory.Addr((idx*5)%st.bufLen))
				p.Work(12) // deflate computation
				p.Store(buf+memory.Addr(idx), v+1)
			},
		},
		{
			// gzip invariant: the output count must stay under the buffer
			// size; the planted bug pushes it over.
			Name: "Gzip-IV", Bug: "IV", Iterations: 3000,
			setup: func(p *Prog, w *Watcher) *progState {
				st := &progState{invAddr: p.sys.Alloc().Alloc(memory.LineWords)}
				if w != nil {
					w.WatchLocalInvariant(st.invAddr, func(v uint64) bool { return v < 4096 })
				}
				return st
			},
			run: func(p *Prog, st *progState, i int) {
				v := p.Load(st.invAddr)
				p.Work(10)
				// The counter advances only at block boundaries; most
				// iterations just read it, so the watchpoint fires rarely.
				if i%25 != 24 {
					return
				}
				if i%1000 == 999 {
					v = 5000 // invariant violation
				} else {
					v = (v + 25) % 4000
				}
				p.Store(st.invAddr, v)
			},
		},
		{
			// man: many small string buffers, frequent off-by-one writes.
			Name: "Man", Bug: "BO", Iterations: 3000,
			setup: func(p *Prog, w *Watcher) *progState {
				st := &progState{bufLen: 8}
				for i := 0; i < 48; i++ {
					buf := p.sys.Alloc().Alloc(st.bufLen + memory.LineWords)
					if w != nil {
						w.GuardBuffer(buf, st.bufLen)
					}
					st.bufs = append(st.bufs, buf)
				}
				return st
			},
			run: func(p *Prog, st *progState, i int) {
				buf := st.bufs[i%len(st.bufs)]
				n := st.bufLen
				if i%100 == 99 {
					n = st.bufLen + 1 // strcpy off-by-one
				}
				for j := 0; j < n; j++ {
					p.Store(buf+memory.Addr(j), uint64(j))
				}
			},
		},
		{
			// squid: leak detection — every tracked-object access traps to
			// refresh its timestamp, the costliest recipe (2.5x in the
			// paper).
			Name: "Squid", Bug: "ML", Iterations: 3000,
			setup: func(p *Prog, w *Watcher) *progState {
				st := &progState{bufLen: memory.LineWords}
				for i := 0; i < 32; i++ {
					obj := p.sys.Alloc().Alloc(st.bufLen)
					if w != nil {
						w.TrackObject(obj, st.bufLen)
					}
					st.bufs = append(st.bufs, obj)
				}
				st.extra = p.sys.Alloc().Alloc(512)
				return st
			},
			run: func(p *Prog, st *progState, i int) {
				if i%4 == 0 {
					// Touch a cached object (half of them are "forgotten"
					// and never touched: the leak).
					obj := st.bufs[i%(len(st.bufs)/2)]
					p.Load(obj)
				} else {
					p.Store(st.extra+memory.Addr(i%512), uint64(i))
				}
				p.Work(6)
			},
		},
	}
}

// Mode selects how a program is executed.
type Mode int

// Execution modes of Table 4(b).
const (
	// Plain: no monitoring.
	Plain Mode = iota
	// WithFlexWatcher: signatures + AOU monitoring.
	WithFlexWatcher
	// WithDiscover: binary-instrumentation-style software checks on every
	// access (the tool the paper compares against).
	WithDiscover
)

// RunProgram executes prog once in the given mode on a fresh machine and
// returns elapsed cycles, the watcher (nil unless WithFlexWatcher), and an
// error if the planted bug went undetected.
func RunProgram(prog Program, mode Mode, machine tmesi.Config) (sim.Time, *Watcher, error) {
	r, err := rig.New(rig.Spec{Machine: machine})
	if err != nil {
		return 0, nil, err
	}
	sys := r.Sys
	var elapsed sim.Time
	var w *Watcher
	var detectErr error
	r.Spawn(prog.Name, func(ctx *sim.Ctx) {
		p := NewProg(sys, ctx, 0, nil)
		switch mode {
		case WithFlexWatcher:
			w = New(sys, 0)
			p.w = w
		case WithDiscover:
			p.Instrument = true
		}
		st := prog.setup(p, w)
		start := ctx.Now()
		for i := 0; i < prog.Iterations; i++ {
			prog.run(p, st, i)
		}
		elapsed = ctx.Now() - start
		if mode == WithFlexWatcher {
			detectErr = checkDetection(prog, w, st, start)
		}
	})
	if err := r.Run(); err != nil {
		return 0, nil, fmt.Errorf("flexwatcher: %w", err)
	}
	return elapsed, w, detectErr
}

func checkDetection(prog Program, w *Watcher, st *progState, start sim.Time) error {
	switch prog.Bug {
	case "BO":
		if w.Count(BufferOverflow) == 0 {
			return fmt.Errorf("%s: planted buffer overflow undetected", prog.Name)
		}
	case "IV":
		if w.Count(InvariantViolation) == 0 {
			return fmt.Errorf("%s: planted invariant violation undetected", prog.Name)
		}
	case "ML":
		if len(w.Leaked(start)) == 0 {
			return fmt.Errorf("%s: leaked objects not identified", prog.Name)
		}
	}
	return nil
}

// Row is one line of the Table 4(b) reproduction.
type Row struct {
	Program      string
	Bug          string
	FlexWatcherX float64 // slowdown vs plain
	DiscoverX    float64
	Detections   int
}

// Table4 runs every program in all three modes and reports slowdowns.
func Table4(machine tmesi.Config) ([]Row, error) {
	var rows []Row
	for _, prog := range Programs() {
		plain, _, err := RunProgram(prog, Plain, machine)
		if err != nil {
			return nil, err
		}
		fxw, w, err := RunProgram(prog, WithFlexWatcher, machine)
		if err != nil {
			return nil, err
		}
		dis, _, err := RunProgram(prog, WithDiscover, machine)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			Program:      prog.Name,
			Bug:          prog.Bug,
			FlexWatcherX: float64(fxw) / float64(plain),
			DiscoverX:    float64(dis) / float64(plain),
			Detections:   len(w.Reports),
		})
	}
	return rows, nil
}

// PrintTable4 renders rows as text.
func PrintTable4(rows []Row) string {
	s := fmt.Sprintf("%-10s %-4s %14s %12s\n", "Program", "Bug", "FlexWatcher", "Discover")
	for _, r := range rows {
		s += fmt.Sprintf("%-10s %-4s %13.2fx %11.2fx\n", r.Program, r.Bug, r.FlexWatcherX, r.DiscoverX)
	}
	return s
}
