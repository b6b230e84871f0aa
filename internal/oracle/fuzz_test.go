package oracle

import (
	"encoding/json"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// decodeHistory turns an arbitrary byte stream into a History. Each op is
// two bytes: the first packs kind (high 3 bits, mod NumOpKinds+1 so one
// value doubles as "register an initial value" instead of an op) and core
// (low 3 bits); the second packs the address (high nibble) and value (low
// nibble). Seq normally increments but the value byte occasionally perturbs
// it backwards, exercising the checker's non-monotone re-stamping path. The
// tiny address/value spaces maximize collisions — the interesting regime
// for a dependency checker.
func decodeHistory(data []byte) History {
	h := History{Initial: map[memory.Addr]uint64{}}
	seq := uint64(1)
	for pc := 0; pc+1 < len(data); pc += 2 {
		sel := int(data[pc] >> 5)
		core := int(data[pc] & 0x07)
		addr := memory.Addr(data[pc+1] >> 4)
		val := uint64(data[pc+1] & 0x0F)
		if sel >= int(NumOpKinds) {
			h.Initial[addr] = val
			continue
		}
		if data[pc+1] == 0xA5 { // occasional Seq regression
			seq -= min(seq, 3)
		}
		h.Ops = append(h.Ops, Op{
			Seq: seq, At: sim.Time(seq * 10), Core: core,
			Kind: OpKind(sel), Addr: addr, Val: val,
		})
		seq++
	}
	return h
}

// FuzzOracleHistory feeds the checker arbitrary — including structurally
// nonsensical — histories. The contract under test is report-never-panic:
// whatever the log looks like (aborts without begins, duplicate commits,
// regressing sequence numbers, reads of unwritten addresses), Check must
// return a structurally consistent Report, and must do so deterministically.
func FuzzOracleHistory(f *testing.F) {
	// begin(0) write read commit; begin(1) read commit
	f.Add([]byte{0x00, 0x00, 0x40, 0x17, 0x20, 0x17, 0x60, 0x00, 0x01, 0x00, 0x21, 0x17, 0x61, 0x00})
	// orphan commit/abort, then ops from a core that never began
	f.Add([]byte{0x60, 0x00, 0x80, 0x00, 0x22, 0x33, 0x43, 0x44})
	// seq regression marker mid-stream
	f.Add([]byte{0x00, 0x00, 0x40, 0xA5, 0x20, 0xA5, 0x60, 0x00})
	// nt ops interleaved with a truncated txn
	f.Add([]byte{0xA0, 0x12, 0xC1, 0x34, 0x02, 0x00, 0x42, 0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := decodeHistory(data)
		rep := CheckCapped(h, 4)
		if rep == nil {
			t.Fatal("Check returned nil report")
		}
		if rep.Ok() != (rep.TotalViolations == 0) {
			t.Fatalf("Ok() = %v with TotalViolations = %d", rep.Ok(), rep.TotalViolations)
		}
		if len(rep.Violations) > 4 {
			t.Fatalf("materialized %d violations, cap is 4", len(rep.Violations))
		}
		if rep.TotalViolations < len(rep.Violations) {
			t.Fatalf("TotalViolations %d < materialized %d", rep.TotalViolations, len(rep.Violations))
		}
		for _, v := range rep.Violations {
			if v.Kind == "" || v.Summary == "" {
				t.Fatalf("violation with empty kind/summary: %+v", v)
			}
		}
		if rep.Truncated < 0 || rep.Txns < 0 {
			t.Fatalf("negative counts: truncated=%d txns=%d", rep.Truncated, rep.Txns)
		}
		// The checker is a pure function of the history: same input, same
		// report, byte for byte. Replayed witnesses depend on this.
		again := CheckCapped(h, 4)
		j1, err1 := json.Marshal(rep)
		j2, err2 := json.Marshal(again)
		if err1 != nil || err2 != nil {
			t.Fatalf("report not marshalable: %v / %v", err1, err2)
		}
		if string(j1) != string(j2) {
			t.Fatalf("nondeterministic report:\n%s\n%s", j1, j2)
		}
	})
}
