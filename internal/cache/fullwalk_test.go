package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flextm/internal/memory"
)

// fullWalk is the reference L1 model: a [][]Line set array whose flash
// operations visit every slot. Cache must be indistinguishable from it.
type fullWalk struct {
	cfg    Config
	sets   [][]Line
	victim []Line
	clock  uint64
}

func newFullWalk(cfg Config) *fullWalk {
	sets := make([][]Line, cfg.Sets)
	for i := range sets {
		sets[i] = make([]Line, cfg.Ways)
	}
	return &fullWalk{cfg: cfg, sets: sets}
}

func (c *fullWalk) setOf(l memory.LineAddr) []Line {
	return c.sets[uint64(l)&uint64(c.cfg.Sets-1)]
}

func (c *fullWalk) Lookup(l memory.LineAddr) *Line {
	set := c.setOf(l)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == l {
			c.clock++
			set[i].lru = c.clock
			return &set[i]
		}
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid && c.victim[i].Tag == l {
			return &c.victim[i]
		}
	}
	return nil
}

func (c *fullWalk) Insert(ln Line) []Victimized {
	if c.Lookup(ln.Tag) != nil {
		panic("fullWalk: Insert of resident line")
	}
	c.clock++
	ln.lru = c.clock
	set := c.setOf(ln.Tag)
	for i := range set {
		if set[i].State == Invalid {
			set[i] = ln
			return nil
		}
	}
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	evicted := set[vi]
	set[vi] = ln
	return c.pushVictim(evicted)
}

func (c *fullWalk) pushVictim(ln Line) []Victimized {
	if c.cfg.VictimSize == 0 && !(c.cfg.UnboundedTMIVictim && ln.State == TMI) {
		return []Victimized{{Line: ln}}
	}
	c.victim = append(c.victim, ln)
	var out []Victimized
	if c.cfg.VictimSize >= 0 {
		over := func() int {
			n := len(c.victim)
			if c.cfg.UnboundedTMIVictim {
				n = 0
				for _, v := range c.victim {
					if v.State != TMI {
						n++
					}
				}
			}
			return n
		}
		for over() > c.cfg.VictimSize {
			for i, v := range c.victim {
				if !c.cfg.UnboundedTMIVictim || v.State != TMI {
					out = append(out, Victimized{Line: v})
					c.victim = append(c.victim[:i], c.victim[i+1:]...)
					break
				}
			}
		}
	}
	return out
}

func (c *fullWalk) Invalidate(l memory.LineAddr) (Line, bool) {
	if ln := c.Lookup(l); ln != nil {
		old := *ln
		ln.State = Invalid
		ln.Alert = false
		return old, true
	}
	return Line{}, false
}

func (c *fullWalk) FlashCommit() int {
	n := 0
	c.forEach(func(ln *Line) {
		switch ln.State {
		case TMI:
			ln.State = Modified
			n++
		case TI:
			ln.State = Invalid
		}
	})
	return n
}

func (c *fullWalk) FlashAbort() int {
	n := 0
	c.forEach(func(ln *Line) {
		if ln.State.Speculative() {
			ln.State = Invalid
			n++
		}
	})
	return n
}

func (c *fullWalk) TMILines() []memory.LineAddr {
	var out []memory.LineAddr
	c.forEach(func(ln *Line) {
		if ln.State == TMI {
			out = append(out, ln.Tag)
		}
	})
	return out
}

func (c *fullWalk) ClearAlerts() {
	c.forEach(func(ln *Line) { ln.Alert = false })
}

func (c *fullWalk) forEach(f func(*Line)) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			f(&c.sets[si][wi])
		}
	}
	live := c.victim[:0]
	for i := range c.victim {
		f(&c.victim[i])
		if c.victim[i].State != Invalid {
			live = append(live, c.victim[i])
		}
	}
	c.victim = live
}

// diffAgainstFullWalk drives a Cache and the full-walk reference through
// the same n random operations and returns the first difference, or "".
// Lookup hits are mutated through the returned pointer the way tmesi does
// (State and Alert writes). Besides every returned value, the whole
// machine state is compared after each step, so a slot a flash walk
// skipped shows up even before any operation reads it.
func diffAgainstFullWalk(cfg Config, seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	c, ref := New(cfg), newFullWalk(cfg)
	// 12 lines compete for each of up to 5 sets; the stride of 53 spreads the
	// sets over most of DefaultL1Config's mask words.
	tag := func() memory.LineAddr {
		return memory.LineAddr(rng.Intn(12)*cfg.Sets + rng.Intn(5)*53)
	}
	state := func() State { return State(1 + rng.Intn(int(TI))) }
	for step := 0; step < n; step++ {
		var op string
		switch k := rng.Intn(12); {
		case k < 3:
			l := tag()
			op = fmt.Sprintf("Insert(%d)", l)
			got, want := c.Lookup(l), ref.Lookup(l)
			if (got == nil) != (want == nil) {
				return fmt.Sprintf("step %d %s: residency check hit=%v, full walk hit=%v", step, op, got != nil, want != nil)
			}
			if got != nil {
				break
			}
			ln := Line{Tag: l, State: state(), Alert: rng.Intn(4) == 0, Data: memory.LineData{uint64(step)}}
			if gs, ws := c.Insert(ln), ref.Insert(ln); !slices.Equal(gs, ws) {
				return fmt.Sprintf("step %d %s: spilled %v, full walk spilled %v", step, op, gs, ws)
			}
		case k < 7:
			l := tag()
			op = fmt.Sprintf("Lookup(%d)", l)
			got, want := c.Lookup(l), ref.Lookup(l)
			if (got == nil) != (want == nil) {
				return fmt.Sprintf("step %d %s: hit=%v, full walk hit=%v", step, op, got != nil, want != nil)
			}
			if got == nil {
				break
			}
			if *got != *want {
				return fmt.Sprintf("step %d %s: line %+v, full walk %+v", step, op, *got, *want)
			}
			switch rng.Intn(3) {
			case 0:
				st := State(rng.Intn(int(TI) + 1))
				got.State, want.State = st, st
			case 1:
				a := rng.Intn(2) == 0
				got.Alert, want.Alert = a, a
			}
		case k == 7:
			l := tag()
			op = fmt.Sprintf("Invalidate(%d)", l)
			gl, gok := c.Invalidate(l)
			wl, wok := ref.Invalidate(l)
			if gl != wl || gok != wok {
				return fmt.Sprintf("step %d %s: (%+v, %v), full walk (%+v, %v)", step, op, gl, gok, wl, wok)
			}
		case k == 8:
			op = "FlashCommit"
			if got, want := c.FlashCommit(), ref.FlashCommit(); got != want {
				return fmt.Sprintf("step %d %s: %d, full walk %d", step, op, got, want)
			}
		case k == 9:
			op = "FlashAbort"
			if got, want := c.FlashAbort(), ref.FlashAbort(); got != want {
				return fmt.Sprintf("step %d %s: %d, full walk %d", step, op, got, want)
			}
		case k == 10:
			op = "ClearAlerts"
			c.ClearAlerts()
			ref.ClearAlerts()
		default:
			op = "TMILines"
			if got, want := c.TMILines(), ref.TMILines(); !slices.Equal(got, want) {
				return fmt.Sprintf("step %d %s: %v, full walk %v", step, op, got, want)
			}
		}
		if d := sameMachine(c, ref); d != "" {
			return fmt.Sprintf("step %d after %s: %s", step, op, d)
		}
	}
	return ""
}

// sameMachine compares the set array, tag mirrors and victim buffer.
func sameMachine(c *Cache, ref *fullWalk) string {
	for s := range ref.sets {
		for w := range ref.sets[s] {
			i := s*c.cfg.Ways + w
			if c.lines[i] != ref.sets[s][w] {
				return fmt.Sprintf("set %d way %d: %+v, full walk %+v", s, w, c.lines[i], ref.sets[s][w])
			}
			if c.tags[i] != c.lines[i].Tag {
				return fmt.Sprintf("slot %d: tag mirror %d, line tag %d", i, c.tags[i], c.lines[i].Tag)
			}
		}
	}
	if !slices.Equal(c.victim, ref.victim) {
		return fmt.Sprintf("victim buffer %+v, full walk %+v", c.victim, ref.victim)
	}
	for i := range c.victim {
		if c.vtags[i] != c.victim[i].Tag {
			return fmt.Sprintf("victim %d: tag mirror %d, line tag %d", i, c.vtags[i], c.victim[i].Tag)
		}
	}
	return ""
}

func TestFlashWalksMatchFullWalk(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 4, Ways: 2, VictimSize: 2},
		{Sets: 2, Ways: 1, VictimSize: 0},
		{Sets: 4, Ways: 2, VictimSize: -1},
		{Sets: 2, Ways: 2, VictimSize: 1, UnboundedTMIVictim: true},
		DefaultL1Config(),
	} {
		t.Run(fmt.Sprintf("%dx%d/v%d/tmi=%v", cfg.Sets, cfg.Ways, cfg.VictimSize, cfg.UnboundedTMIVictim), func(t *testing.T) {
			var diff string
			f := func(seed int64) bool {
				diff = diffAgainstFullWalk(cfg, seed, 400)
				if diff != "" {
					diff = fmt.Sprintf("seed %d: %s", seed, diff)
				}
				return diff == ""
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(diff)
			}
		})
	}
}
