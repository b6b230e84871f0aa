package tmesi

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"flextm/internal/cache"
	"flextm/internal/cst"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// figure1Golden pins every Figure 1 exchange the memory system models: one
// line per request kind, requester state, responder line state and
// responder signature hits.
const figure1Golden = "testdata/figure1_responses.json"

// figure1Case is one forwarded request against one prepared responder.
type figure1Case struct {
	Op        string // Load (GETS), TLoad (GETST), Store (GETX), TStore (TGETX)
	Requester string // miss, S or TI (an upgrade), ot (an overflowed own line)
	Responder string // the responder's L1 state of the line before the op
	Sigs      string // off (no transaction), none, R, W, RW, or alias (an injected false positive)
}

// figure1Obs is what one case leaves behind.
type figure1Obs struct {
	figure1Case
	Val        uint64
	Conflicts  []Conflict
	Latency    sim.Time
	ReqState   string
	RespState  string
	ReqCST     [3]cst.Vec
	RespCST    [3]cst.Vec
	Victims    []int
	Stats      map[string]uint64
	Flight     []flight.Rec
	Counters   [2]map[string]uint64
	ReqHolder  bool
	RespHolder bool
}

// figure1Cases enumerates the request kinds, requester states, responder
// line states and responder signature hits.
func figure1Cases() []figure1Case {
	var out []figure1Case
	for _, op := range []string{"Load", "TLoad", "Store", "TStore"} {
		reqs := []string{"miss", "ot"}
		if op == "Store" || op == "TStore" {
			reqs = append(reqs, "S", "TI")
		}
		for _, req := range reqs {
			for _, resp := range []string{"I", "S", "E", "M", "TMI", "TI"} {
				for _, sigs := range []string{"off", "none", "R", "W", "RW", "alias"} {
					out = append(out, figure1Case{op, req, resp, sigs})
				}
			}
		}
	}
	return out
}

// runFigure1Case runs one case on a fresh three-core machine with
// telemetry and a flight recorder: core 0 requests, core 1 responds.
func runFigure1Case(t *testing.T, c figure1Case) figure1Obs {
	cfg := smallCfg()
	cfg.Cores = 3
	s := New(cfg)
	s.SetTelemetry(telemetry.New(cfg.Cores))
	s.SetFlight(flight.New(cfg.Cores, 256))
	o := figure1Obs{figure1Case: c}
	if c.Sigs == "alias" {
		s.SetFaultInjector(fault.NewInjector(fault.Config{Seed: 1}.WithRate(fault.SigFalsePos, 1)))
	}
	s.SetStrongIsolationHook(func(v int) { o.Victims = append(o.Victims, v) })
	const a = memory.Addr(40*memory.LineWords + 3)
	line := a.Line()
	s.Image().WriteWord(a, 5)
	e := sim.NewEngine()
	e.Spawn("figure1", 0, func(ctx *sim.Ctx) {
		// fill installs the line in core's L1 in state st, with v at a.
		fill := func(core int, st cache.State, v uint64) {
			ln := cache.Line{Tag: line, State: st}
			s.Image().ReadLine(line, &ln.Data)
			ln.Data[a.Offset()] = v
			s.insertLine(&s.cores[core], core, ln)
		}
		switch c.Requester {
		case "S":
			fill(0, cache.Shared, 5)
		case "TI":
			fill(0, cache.TI, 5)
		case "ot":
			s.BeginTxn(0)
			s.TStore(ctx, 0, a, 9)
			s.FlushTMIToOT(0, []memory.LineAddr{line})
		}
		if (c.Op == "TLoad" || c.Op == "TStore") && !s.TxnActive(0) {
			s.BeginTxn(0)
		}
		switch c.Responder {
		case "S":
			fill(1, cache.Shared, 5)
		case "E":
			fill(1, cache.Exclusive, 5)
		case "M":
			fill(1, cache.Modified, 77)
		case "TMI":
			fill(1, cache.TMI, 88)
		case "TI":
			fill(1, cache.TI, 5)
		}
		if c.Sigs != "off" {
			s.BeginTxn(1)
			for _, w := range []bool{false, true} {
				if (!w && (c.Sigs == "R" || c.Sigs == "RW")) || (w && (c.Sigs == "W" || c.Sigs == "RW")) {
					s.WatchInsert(1, a, w)
				}
			}
		}
		ctx.Sync()
		t0 := ctx.Now()
		var res OpResult
		switch c.Op {
		case "Load":
			res = s.Load(ctx, 0, a)
		case "TLoad":
			res = s.TLoad(ctx, 0, a)
		case "Store":
			res = s.Store(ctx, 0, a, 11)
		case "TStore":
			res = s.TStore(ctx, 0, a, 12)
		}
		o.Latency = ctx.Now() - t0
		o.Val, o.Conflicts = res.Val, res.Conflicts
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%+v: %d threads left blocked", c, blocked)
	}
	o.ReqState = s.LineState(0, line).String()
	o.RespState = s.LineState(1, line).String()
	for k := cst.RW; k <= cst.WW; k++ {
		o.ReqCST[k] = *s.CST(0).Get(k)
		o.RespCST[k] = *s.CST(1).Get(k)
	}
	held := s.holders.get(line)
	o.ReqHolder, o.RespHolder = held&1 != 0, held&2 != 0
	o.Stats = map[string]uint64{}
	st := reflect.ValueOf(s.Stats())
	for i := 0; i < st.NumField(); i++ {
		if v := st.Field(i).Uint(); v != 0 {
			o.Stats[st.Type().Field(i).Name] = v
		}
	}
	o.Flight = s.Flight().Snapshot()
	snap := s.Telemetry().Snapshot()
	for core := range o.Counters {
		m := map[string]uint64{}
		for ctr, v := range snap.Cores[core].Counters {
			if v != 0 {
				m[telemetry.Counter(ctr).String()] = v
			}
		}
		o.Counters[core] = m
	}
	return o
}

// figure1Responses renders every case, one JSON line each.
func figure1Responses(t *testing.T) []byte {
	var buf bytes.Buffer
	for _, c := range figure1Cases() {
		b, err := json.Marshal(runFigure1Case(t, c))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestFigure1ResponsesMatchParent: every request kind against every
// responder line state and signature hit, from a miss, an upgrade and an
// overflowed own line, must keep its result, conflicts, latency, line
// states, CSTs on both sides, strong-isolation victims, counters and
// flight records (Aux bits included) byte for byte.
func TestFigure1ResponsesMatchParent(t *testing.T) {
	want, err := os.ReadFile(figure1Golden)
	if err != nil {
		t.Fatal(err)
	}
	got := figure1Responses(t)
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("case %d diverged from %s:\n got %s\nwant %s", i+1, figure1Golden, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d cases, %s has %d", len(gl)-1, figure1Golden, len(wl)-1)
	}
}
