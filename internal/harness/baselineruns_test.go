package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// baselineGolden pins every baseline runtime's outcomes — commits, aborts,
// makespan, machine counters and the final memory image — to what the
// simulator produced before the runtimes shared one transaction driver.
// It is the only exact pin on LogTM and Bulk.
const baselineGolden = "testdata/baseline_runs.json"

// bank is a contended micro-workload: transfers between a few accounts on
// their own lines, each bumping a shared counter in a nested Atomic so the
// subsumption path runs too.
type bank struct{ base, counter memory.Addr }

const bankAccounts, bankInitial = 6, 1000

func (b *bank) Name() string { return "Bank" }

func (b *bank) Setup(env *workloads.Env) {
	b.base = env.Alloc.Alloc(bankAccounts * memory.LineWords)
	b.counter = env.Alloc.Alloc(memory.LineWords)
	for i := 0; i < bankAccounts; i++ {
		env.Write(b.acct(i), bankInitial)
	}
}

func (b *bank) acct(i int) memory.Addr { return b.base + memory.Addr(i*memory.LineWords) }

func (b *bank) Op(th tmapi.Thread) {
	r := th.Rand()
	from, to, amt := r.Intn(bankAccounts), r.Intn(bankAccounts), uint64(r.Intn(50))
	th.Atomic(func(tx tmapi.Txn) {
		f := tx.Load(b.acct(from))
		if f < amt {
			return
		}
		tx.Store(b.acct(from), f-amt)
		th.Work(40)
		tx.Store(b.acct(to), tx.Load(b.acct(to))+amt)
		th.Atomic(func(tx tmapi.Txn) { tx.Store(b.counter, tx.Load(b.counter)+1) })
	})
	th.Work(60)
}

func (b *bank) Verify(env *workloads.Env) error {
	var total uint64
	for i := 0; i < bankAccounts; i++ {
		total += env.Read(b.acct(i))
	}
	if total != bankAccounts*bankInitial {
		return fmt.Errorf("bank total %d, want %d", total, bankAccounts*bankInitial)
	}
	return nil
}

// baselineRun is one pinned run.
type baselineRun struct {
	System   SystemName
	Workload string
	Threads  int
	Commits  uint64
	Aborts   uint64
	Makespan uint64
	Machine  tmesi.Stats
	Memory   string // digest of every allocated word's coherent value
}

// memoryDigest hashes the coherent value of every word the run allocated,
// runtime metadata and workload data alike.
func memoryDigest(sys *tmesi.System) string {
	h := sha256.New()
	var w [8]byte
	for a := memory.HeapBase; a < sys.Alloc().Brk(); a++ {
		binary.LittleEndian.PutUint64(w[:], sys.ReadWordRaw(a))
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// baselineRuns executes the pinned run set, one JSON line per run.
func baselineRuns(t *testing.T) []byte {
	t.Helper()
	rg, _ := workloads.ByName("RandomGraph")
	vac, _ := workloads.ByName("Vacation-Low")
	loads := []workloads.Factory{
		{Name: "Bank", New: func() workloads.Workload { return &bank{} }}, rg, vac,
	}
	var out bytes.Buffer
	for _, sys := range []SystemName{CGL, RSTM, TL2, RTMF, LogTM, Bulk} {
		for _, f := range loads {
			for _, threads := range []int{1, 4, 8} {
				res, m, err := run(RunConfig{
					System: sys, Workload: f, Threads: threads, OpsPerThread: 60, WarmupOps: 16,
					Machine: tmesi.DefaultConfig(), Verify: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				line, err := json.Marshal(baselineRun{
					System: sys, Workload: res.Workload, Threads: threads,
					Commits: res.Commits, Aborts: res.Aborts, Makespan: uint64(res.Cycles),
					Machine: res.Machine, Memory: memoryDigest(m),
				})
				if err != nil {
					t.Fatal(err)
				}
				out.Write(append(line, '\n'))
			}
		}
	}
	return out.Bytes()
}

// TestBaselineRunsMatchParent: every baseline runtime (CGL, RSTM, TL2,
// RTM-F, LogTM, Bulk) on a contended bank with nested Atomic sections,
// RandomGraph and Vacation at 1, 4 and 8 threads must reproduce its
// pinned outcomes exactly. The runs are single-goroutine simulations, so
// the test skips itself under the race detector.
func TestBaselineRunsMatchParent(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine simulations; nothing for the race detector")
	}
	want, err := os.ReadFile(baselineGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := baselineRuns(t)
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("run %d diverged from %s:\n got %s\nwant %s", i+1, baselineGolden, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%d runs, want %d", len(gl), len(wl))
	}
}
