package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type payload struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Tput  float64 `json:"tput"`
}

const schema = "test-cell/v1"

// put stores v's JSON encoding under key.
func put(s *Store, key, sch string, v payload) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.Put(key, sch, b)
}

// get decodes the entry under key into out. A payload that is not a JSON
// payload object is a decode error, so Get counts it corrupt.
func get(s *Store, key, sch string, out *payload) bool {
	return s.Get(key, sch, func(b []byte) error {
		d := json.NewDecoder(bytes.NewReader(b))
		d.DisallowUnknownFields()
		return d.Decode(out)
	})
}

// entryPath is the file holding key's entry.
func entryPath(dir, key string) string { return filepath.Join(dir, key[:2], key+ext) }

func mustKey(t *testing.T, sch string, cfg any) string {
	t.Helper()
	k, err := Key(sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "RBTree", Count: 42, Tput: 3.25}
	key := mustKey(t, schema, map[string]any{"workload": "RBTree", "threads": 8})

	var out payload
	if get(s, key, schema, &out) {
		t.Fatal("hit on an empty store")
	}
	if err := put(s, key, schema, in); err != nil {
		t.Fatal(err)
	}
	if !get(s, key, schema, &out) {
		t.Fatal("miss after Put")
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

// TestSchemaBumpInvalidates: a new code schema version must turn every
// existing entry into a miss — both through the key (different hash) and
// through the envelope check (same key, skewed schema).
func TestSchemaBumpInvalidates(t *testing.T) {
	s, _ := Open(t.TempDir())
	cfg := map[string]int{"threads": 4}
	oldKey := mustKey(t, "cell/v1", cfg)
	newKey := mustKey(t, "cell/v2", cfg)
	if oldKey == newKey {
		t.Fatal("schema bump did not change the key")
	}
	if err := put(s, oldKey, "cell/v1", payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if get(s, newKey, "cell/v2", &out) {
		t.Fatal("v2 key hit a v1 entry")
	}
	// Same key, different schema in the envelope: fail closed as a miss.
	if get(s, oldKey, "cell/v2", &out) {
		t.Fatal("schema-skewed entry decoded as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("schema skew not counted as corrupt: %+v", st)
	}
}

// TestCorruptedEntryFallsBackToMiss: any damaged entry — truncated,
// bit-flipped, arbitrary bytes, a foreign magic, a skewed schema, or a sound
// envelope whose payload has the wrong shape — is a miss, never an error,
// and a fresh Put repairs it.
func TestCorruptedEntryFallsBackToMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	in := payload{Name: "LFUCache", Count: 7}
	key := mustKey(t, schema, 1234)
	if err := put(s, key, schema, in); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, key)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// envelope builds a well-formed entry around payload, digest included.
	envelope := func(sch string, payload []byte) []byte {
		if err := s.Put(key, sch, payload); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":     func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)/2] ^= 0x40; return c },
		"not-json":     func([]byte) []byte { return []byte("not json at all") }, // nor an envelope
		"wrong-magic":  func(b []byte) []byte { c := append([]byte{}, b...); c[0] ^= 0x01; return c },
		"wrong-schema": func([]byte) []byte { return envelope("test-cell/v0", []byte(`{"name":"LFUCache","count":7}`)) },
		"wrong-shape":  func([]byte) []byte { return envelope(schema, []byte(`[1,2]`)) },
		"empty":        func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			data := corrupt(orig)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			var out payload
			if get(s, key, schema, &out) {
				t.Fatal("corrupted entry returned a hit")
			}
			after := s.Stats()
			if after.Corrupt != before.Corrupt+1 || after.Misses != before.Misses+1 {
				t.Fatalf("corruption not counted: before %+v after %+v", before, after)
			}
			// The cell re-runs live and overwrites: store must recover.
			if err := put(s, key, schema, in); err != nil {
				t.Fatal(err)
			}
			if !get(s, key, schema, &out) || out != in {
				t.Fatalf("store did not recover after overwrite: %+v", out)
			}
		})
	}
}

// TestEveryPrefixIsAMiss: no proper prefix of an entry is a hit, so a
// write cut short anywhere fails closed.
func TestEveryPrefixIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := mustKey(t, schema, "prefix")
	if err := s.Put(key, schema, nil); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, key)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	accept := func([]byte) error { return nil }
	if !s.Get(key, schema, accept) {
		t.Fatal("miss on the intact entry")
	}
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if s.Get(key, schema, accept) {
			t.Fatalf("%d-byte prefix of a %d-byte entry was a hit", n, len(full))
		}
	}
}

// TestLegacyEntriesAreCountedAndCleared: entry files of any extension —
// the JSON entries an older store wrote — count toward the eviction
// bound and are cleared with the rest.
func TestLegacyEntriesAreCountedAndCleared(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "ab", "ab01.json")
	if err := os.MkdirAll(filepath.Dir(legacy), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, []byte(`{"schema":"old"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(legacy, old, old); err != nil {
		t.Fatal(err)
	}
	s, _ := Open(dir)
	if err := put(s, mustKey(t, schema, 1), schema, payload{Count: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("len = %d, want the new entry plus the legacy one", got)
	}
	s.SetMaxEntries(1)
	if err := put(s, mustKey(t, schema, 2), schema, payload{Count: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("eviction kept the oldest (legacy) entry: %v", err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("len = %d after clear", got)
	}
}

// TestEvictionDropsOldest: past the entry bound, Put evicts the
// oldest-modified entries first.
func TestEvictionDropsOldest(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	s.SetMaxEntries(3)
	keys := make([]string, 5)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = mustKey(t, schema, i)
		if err := put(s, keys[i], schema, payload{Count: i}); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes: filesystem timestamp granularity would
		// otherwise tie every entry written in the same instant.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(entryPath(dir, keys[i]), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("len = %d after eviction, want 3", got)
	}
	var out payload
	for i, key := range keys {
		hit := get(s, key, schema, &out)
		wantHit := i >= 2 // 0 and 1 are the oldest two of the five
		if hit != wantHit {
			t.Errorf("entry %d: hit=%v, want %v", i, hit, wantHit)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions counted: %+v", st)
	}
}

// TestStoreConcurrentPutsAndGets: one Store is shared by every sweep
// worker of a parallel sweep with -cache, so Get/Put — and the
// eviction passes concurrent Puts trip — must be safe from many
// goroutines at once. Run under -race (the CI test job), this pins the
// store's thread-safety contract; the counter sums pin that no update
// was lost.
func TestStoreConcurrentPutsAndGets(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 40
		bound   = 32
	)
	s.SetMaxEntries(bound)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k, err := Key(schema, [2]int{g, i})
				if err != nil {
					t.Error(err)
					return
				}
				var out payload
				get(s, k, schema, &out)
				if err := put(s, k, schema, payload{Name: "cell", Count: g*perW + i}); err != nil {
					t.Error(err)
					return
				}
				get(s, k, schema, &out)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Puts != workers*perW {
		t.Fatalf("puts = %d, want %d: %+v", st.Puts, workers*perW, st)
	}
	// Every Get bumps exactly one of hits/misses, whatever the interleaving
	// with concurrent evictions.
	if got := st.Hits + st.Misses; got != 2*workers*perW {
		t.Fatalf("hits+misses = %d, want %d: %+v", got, 2*workers*perW, st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-entry bound after %d puts: %+v", bound, workers*perW, st)
	}
	// The count is approximate under concurrency (a racing Put can land
	// just after a pass lists the store), so the bound holds to within one
	// straggler per worker.
	if got := s.Len(); got > bound+workers {
		t.Fatalf("len = %d, eviction never enforced the %d-entry bound", got, bound)
	}
}

// TestConcurrentPutsAtTightBound: with every Put past the bound, each
// eviction pass races other Puts between their write and their rename,
// and Puts of one key race each other. Every Put must succeed, and no
// listing may count a Put's temp file as an entry.
func TestConcurrentPutsAtTightBound(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxEntries(1)
	const workers, perW = 6, 30
	done := make(chan struct{})
	listed := make(chan error, 1)
	go func() {
		defer close(listed)
		for {
			select {
			case <-done:
				return
			default:
			}
			entries, err := s.list()
			if err != nil {
				continue
			}
			for _, e := range entries {
				if filepath.Ext(e.path) != ext {
					listed <- fmt.Errorf("list counted %s", e.path)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Even workers share their keys, odd ones have their own.
				k := mustKey(t, schema, [2]int{g % 2 * g, i})
				if err := put(s, k, schema, payload{Count: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-listed; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != workers*perW {
		t.Fatalf("puts = %d, want %d: %+v", st.Puts, workers*perW, st)
	}
	if got := s.Len(); got > workers {
		t.Fatalf("len = %d, want at most one straggler per worker past the 1-entry bound", got)
	}
}

// TestReopenSeedsEvictionCount: a store reopened over an existing
// directory knows how many entries it already holds, so the first Put
// past the bound still triggers eviction.
func TestReopenSeedsEvictionCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := put(s, mustKey(t, schema, i), schema, payload{Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetMaxEntries(3)
	if err := put(s2, mustKey(t, schema, 99), schema, payload{Count: 99}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 3 {
		t.Fatalf("len = %d after the reopened store's first over-bound put, want 3", got)
	}
	if st := s2.Stats(); st.Evictions == 0 {
		t.Fatalf("reopened store never evicted: %+v", st)
	}
}

func TestClearKeepsRoot(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := mustKey(t, schema, "x")
	if err := put(s, key, schema, payload{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after clear", s.Len())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("clear removed the store root: %v", err)
	}
	// The store stays usable.
	if err := put(s, key, schema, payload{Count: 9}); err != nil {
		t.Fatal(err)
	}
	var out payload
	if !get(s, key, schema, &out) || out.Count != 9 {
		t.Fatal("store unusable after clear")
	}
}

// TestNilStoreAlwaysMisses: the nil store is the caching-off mode; every
// operation is a cheap no-op.
func TestNilStoreAlwaysMisses(t *testing.T) {
	var s *Store
	var out payload
	if get(s, "abcd", schema, &out) {
		t.Fatal("nil store hit")
	}
	if err := put(s, "abcd", schema, payload{}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Dir() != "" {
		t.Fatal("nil store has contents")
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

// TestKeyCanonical: equal configurations always produce equal keys; any
// changed field or schema produces a different one.
func TestKeyCanonical(t *testing.T) {
	type cfg struct {
		Workload string `json:"workload"`
		Threads  int    `json:"threads"`
	}
	a := mustKey(t, schema, cfg{"RBTree", 8})
	b := mustKey(t, schema, cfg{"RBTree", 8})
	if a != b {
		t.Fatal("equal configs produced different keys")
	}
	if c := mustKey(t, schema, cfg{"RBTree", 16}); c == a {
		t.Fatal("changed field kept the key")
	}
	if c := mustKey(t, schema+"x", cfg{"RBTree", 8}); c == a {
		t.Fatal("changed schema kept the key")
	}
	if _, err := Key(schema, func() {}); err == nil {
		t.Fatal("unencodable config produced a key")
	}
}
