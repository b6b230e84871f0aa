// Package cache is the content-addressed cell cache behind `paperbench
// -cache`: one file per sweep cell, keyed by the hash of the cell's full
// canonical configuration plus a code schema version. Because every cell
// is a deterministic function of its configuration, a hit IS the
// simulation — re-running an unchanged grid touches no simulator code at
// all, and any code change that alters results must bump the schema
// version, which changes every key and invalidates the whole store.
//
// Entries are bytes to the store: callers encode and decode their own
// payloads, and the store wraps each in a binary envelope that carries the
// schema and an integrity digest (see magic).
//
// The store is defensive by construction: a corrupted, truncated, or
// stale-schema entry is a miss (the cell re-simulates and overwrites it),
// never an error. A nil *Store is a valid always-miss cache, so callers
// wire it unconditionally and pay nothing when caching is off.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxEntries bounds the store: past it, the oldest entries (by
// file modification time) are evicted on Put. Generous relative to the
// full figure suite (a few hundred cells) so eviction only matters for
// long-lived stores accumulating many configurations.
const DefaultMaxEntries = 8192

// Store is an on-disk content-addressed cache. The zero value and the nil
// pointer are valid always-miss stores. All methods are safe for
// concurrent use: a parallel sweep (`-parallel` + `-cache`) shares one
// Store across every worker goroutine.
type Store struct {
	dir        string
	maxEntries atomic.Int64

	hits, misses, puts, evictions, corrupt atomic.Uint64

	// count approximates the number of live entries: seeded by a walk at
	// Open, incremented per Put (overwrites drift it upward), and
	// re-synchronized by every eviction pass. Only the eviction threshold
	// reads it, so drift costs at most an early pass, never a missed
	// bound — and Put stays O(1) instead of walking the store each time.
	count atomic.Int64
	// evictMu serializes the full list/sort/remove eviction pass.
	evictMu sync.Mutex
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts entries that existed but failed decoding or the
	// integrity digest — each also counted as a miss.
	Corrupt uint64 `json:"corrupt"`
}

func (s Stats) String() string {
	return fmt.Sprintf("cache: %d hits, %d misses (%d corrupt), %d puts, %d evictions",
		s.Hits, s.Misses, s.Corrupt, s.Puts, s.Evictions)
}

// Open creates (if needed) and opens a store rooted at dir. The one-time
// entry walk seeds the eviction count, so a reopened store still evicts
// on the first Put past the bound.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	s := &Store{dir: dir}
	s.maxEntries.Store(DefaultMaxEntries)
	if entries, err := s.list(); err == nil {
		s.count.Store(int64(len(entries)))
	}
	return s, nil
}

// SetMaxEntries overrides the eviction bound (<= 0 restores the default).
func (s *Store) SetMaxEntries(n int) {
	if n <= 0 {
		n = DefaultMaxEntries
	}
	s.maxEntries.Store(int64(n))
}

// max reads the eviction bound (zero-value Stores fall to the default).
func (s *Store) max() int64 {
	if m := s.maxEntries.Load(); m > 0 {
		return m
	}
	return DefaultMaxEntries
}

// Key derives the content address for one cell: the hex sha256 of the
// schema version and the cell configuration's canonical JSON.
// encoding/json is canonical for our config types — struct fields emit in
// declaration order and map keys sort — so equal configurations always
// collide and any changed field, however deep, produces a fresh key.
func Key(schema string, config any) (string, error) {
	cfg, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("cellcache: key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(schema))
	h.Write([]byte{0})
	h.Write(cfg)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Each on-disk entry is one binary envelope:
//
//	magic   "FXTMCELL"
//	schema  uvarint length, then the schema string
//	digest  the raw 32-byte sha256 of the payload
//	payload the caller's bytes, to the end of the file
//
// The store never looks inside the payload: the caller encodes it on Put
// and decodes it on Get. The digest covers the payload alone, so a
// flipped bit anywhere in the value fails closed as a miss.
const magic = "FXTMCELL"

// ext is the entry files' extension. list counts files of any extension,
// so entries an older store format left behind are still counted, evicted
// and cleared.
const ext = ".cell"

// tmpPrefix starts the name of every file a Put is still writing. list
// skips such files, so an eviction pass never removes one between its
// write and its rename.
const tmpPrefix = ".put-"

func (s *Store) path(key string) string {
	// Shard by the first byte of the hash to keep directory listings sane
	// for large stores.
	return filepath.Join(s.dir, key[:2], key+ext)
}

// Get reads the entry for key, hands its payload to decode and reports
// whether it was a clean hit. Every failure mode — absent file,
// unreadable file, wrong magic, truncation, schema skew, digest mismatch,
// a decode error (a payload of the wrong shape) — is a miss; all but the
// absent or unreadable file also count as corrupt.
func (s *Store) Get(key, schema string, decode func(payload []byte) error) bool {
	if s == nil || s.dir == "" {
		return false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	payload, ok := openEnvelope(data, schema)
	if !ok || decode(payload) != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// openEnvelope checks an entry's envelope against schema and returns its payload.
func openEnvelope(data []byte, schema string) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return nil, false
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n != uint64(len(schema)) || uint64(len(rest)-w) < n+sha256.Size {
		return nil, false
	}
	rest = rest[w:]
	if string(rest[:n]) != schema {
		return nil, false
	}
	rest = rest[n:]
	payload := rest[sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(rest[:sha256.Size]) {
		return nil, false
	}
	return payload, true
}

// Put stores payload under key. Failures are returned but safe to ignore:
// a failed Put only costs a future miss.
func (s *Store) Put(key, schema string, payload []byte) error {
	if s == nil || s.dir == "" {
		return nil
	}
	data := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(schema)+sha256.Size+len(payload))
	data = append(data, magic...)
	data = binary.AppendUvarint(data, uint64(len(schema)))
	data = append(data, schema...)
	sum := sha256.Sum256(payload)
	data = append(data, sum[:]...)
	data = append(data, payload...)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cellcache: put: %w", err)
	}
	// Write-then-rename so a crash mid-write leaves no half-entry for a
	// future Get to read (it would be caught by the digest anyway). Each
	// Put writes a temp file of its own, so two Puts of one key never
	// share one.
	f, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cellcache: put: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("cellcache: put: %w", err)
	}
	s.puts.Add(1)
	if s.count.Add(1) > s.max() {
		return s.evict()
	}
	return nil
}

// evict trims the store to maxEntries, oldest-modified first. One pass
// runs at a time: concurrent Puts that trip the threshold queue behind
// evictMu, find the store already trimmed, and return without removing
// anything.
func (s *Store) evict() error {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	max := int(s.max())
	entries, err := s.list()
	if err != nil {
		return err
	}
	s.count.Store(int64(len(entries)))
	if len(entries) <= max {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	var firstErr error
	for _, e := range entries[:len(entries)-max] {
		if err := os.Remove(e.path); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			s.evictions.Add(1)
			s.count.Add(-1)
		}
	}
	return firstErr
}

type entry struct {
	path  string
	mtime time.Time
}

// list walks the store's entry files, whatever their extension, skipping
// the temp files of Puts in flight.
func (s *Store) list() ([]entry, error) {
	var out []entry
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || strings.HasPrefix(f.Name(), tmpPrefix) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entry{
				path:  filepath.Join(s.dir, sh.Name(), f.Name()),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// Len counts live entries (test/diagnostic helper).
func (s *Store) Len() int {
	if s == nil || s.dir == "" {
		return 0
	}
	entries, err := s.list()
	if err != nil {
		return 0
	}
	return len(entries)
}

// Clear removes every entry, keeping the store directory itself.
func (s *Store) Clear() error {
	if s == nil || s.dir == "" {
		return nil
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("cellcache: clear: %w", err)
	}
	for _, sh := range shards {
		if err := os.RemoveAll(filepath.Join(s.dir, sh.Name())); err != nil {
			return fmt.Errorf("cellcache: clear: %w", err)
		}
	}
	s.count.Store(0)
	return nil
}

// Stats snapshots the store's counters. Nil-safe.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// Dir reports the store root ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}
