package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flextm/internal/memory"
)

// maxSpans bounds the raw spans kept in memory; every span, kept or not,
// still lands in the per-name aggregate.
const maxSpans = 1 << 16

// streamPerRun bounds the address stream the probes replay, split evenly
// across a pass's cells.
const streamPerRun = 1 << 16

// frame is an open span.
type frame struct {
	name   string
	cell   int
	id     int32
	parent int32
	start  int64
	// child is the time covered by the span's direct children, so that
	// dur-child is the span's self time.
	child int64
}

// spanRec is one closed span as written out.
type spanRec struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"totalNs"`
	SelfNs  int64 `json:"selfNs"`
}

type streamKind uint8

const (
	streamBegin streamKind = iota // a transaction body is entered
	streamLoad
	streamStore
)

// streamOp is one entry of the recorded address stream.
type streamOp struct {
	kind streamKind
	tx   bool // a TMESI T-op (FlexTM transactional access)
	addr memory.Addr
}

// tracer keeps the traced run's spans and counts in memory; write dumps
// them when the run ends. The simulated threads of one cell call it one at
// a time, and parallel replay workers call only open and close, so one
// mutex orders everything.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	nextID  int32
	spans   []spanRec
	dropped int64
	agg     map[string]*spanAgg

	// The cell in progress on a serial pass.
	cell       int
	run        frame
	txOps      bool
	cellStream int
	streamCap  int

	atomicCalls, attempts, accesses int64
	stream                          []streamOp
}

func newTracer(cells int) *tracer {
	return &tracer{
		t0:        time.Now(),
		agg:       map[string]*spanAgg{},
		streamCap: streamPerRun / cells,
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// open starts a span of cell under parent (0 for a root).
func (tr *tracer) open(name string, parent int32, cell int) frame {
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.mu.Unlock()
	return frame{name: name, cell: cell, id: id, parent: parent, start: tr.now()}
}

// close ends f, records it and returns its duration.
func (tr *tracer) close(f frame) int64 {
	end := tr.now()
	d := end - f.start
	tr.mu.Lock()
	a := tr.agg[f.name]
	if a == nil {
		a = &spanAgg{}
		tr.agg[f.name] = a
	}
	a.Count++
	a.TotalNs += d
	a.SelfNs += d - f.child
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, spanRec{Name: f.name, Cell: f.cell, ID: f.id, Parent: f.parent, Start: f.start, End: end})
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
	return d
}

// beginCell opens the harness.run span of cell i on a serial pass.
func (tr *tracer) beginCell(i int, txOps bool) {
	tr.cell, tr.txOps, tr.cellStream = i, txOps, 0
	tr.run = tr.open("harness.run", 0, i)
}

// endCell closes the cell's harness.run span and returns its duration.
func (tr *tracer) endCell() int64 { return tr.close(tr.run) }

// runSpanID is the parent of a cell's top-level spans.
func (tr *tracer) runSpanID() int32 { return tr.run.id }

// cellSpan opens a span directly under the cell's harness.run span and
// returns its closer. Nil-safe, for the untraced adapter.
func (tr *tracer) cellSpan(name string) func() {
	if tr == nil {
		return func() {}
	}
	f := tr.open(name, tr.run.id, tr.cell)
	return func() { tr.run.child += tr.close(f) }
}

// count bumps one of the tracer's tmapi counters.
func (tr *tracer) count(c *int64) {
	tr.mu.Lock()
	*c++
	tr.mu.Unlock()
}

// access counts a tmapi access and samples it into the address stream.
func (tr *tracer) access(k streamKind, tx bool, a memory.Addr) {
	tr.mu.Lock()
	if k != streamBegin {
		tr.accesses++
	}
	if tr.cellStream < tr.streamCap {
		tr.stream = append(tr.stream, streamOp{kind: k, tx: tx, addr: a})
		tr.cellStream++
	}
	tr.mu.Unlock()
}

// aggregate returns the summed spans of one name.
func (tr *tracer) aggregate(name string) spanAgg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if a := tr.agg[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// traceDump is the file a traced run writes.
type traceDump struct {
	Workload   string              `json:"workload"`
	Seed       uint64              `json:"seed"`
	Host       hostInfo            `json:"host"`
	Note       string              `json:"note"`
	Aggregates map[string]*spanAgg `json:"aggregates"`
	Spans      []spanRec           `json:"spans"`
	Dropped    int64               `json:"droppedSpans"`
}

// write dumps the spans to path.
func (tr *tracer) write(path, workload string, seed uint64, host hostInfo) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := traceDump{
		Workload: workload, Seed: seed, Host: host,
		Note: "Spans are recorded from the benchmark's own files at the tmapi, harness, analysis and " +
			"cell-cache boundaries. The engine runs one simulated thread at a time, so a tmapi span's " +
			"duration also covers other threads; only workloads.op and tmapi.attempt self times are " +
			"workload code.",
		Aggregates: tr.agg, Spans: tr.spans, Dropped: tr.dropped,
	}
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
