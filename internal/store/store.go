// Package store is the durable, cross-campaign, content-addressed
// result store, and the only durable record of a campaign's results:
// every completed simulation result is kept on disk keyed by (simulator
// fingerprint, store key), so any run ever computed — by any campaign,
// binary, or pinted tenant sharing the store directory — is a hit
// instead of a recomputation, and a crashed or interrupted campaign
// resumes by finding its finished runs here. The store key of a
// full-fidelity result is its normalized-config SHA-256
// (runner.ConfigKey); a phase-sampled approximation is filed under a
// separate key (runner.SampledKey), so it is never served as a
// full-fidelity result.
//
// Layout. Results are CRC-framed records (`!<crc32c> <json>` lines) in
// append-only segment files (seg-<seq>.seg) under one directory, plus a
// small meta.json carrying the segment sequence counter and the LRU
// clock, written with the write-temp→fsync→rename discipline of the
// service manifest. Each Put is one write and one fsync. There is no
// persistent index: the in-memory index is rebuilt by scanning the
// segments on open (no mmap). The scan's corruption contract: a torn
// final record — the incomplete line a crash or a failed append leaves —
// is benign and trimmed, a corrupt record anywhere else is skipped and
// counted, and every intact record after it is still indexed.
//
// Staleness. Each record embeds the simulator fingerprint of the build
// that wrote it. Only records matching the opening build's fingerprint
// are indexed; older-fingerprint records stay on disk for benchjson-
// style before/after comparison until GC reclaims their segments, but
// they are never served.
//
// GC. A byte budget bounds the directory: when appends push the total
// over budget, whole segments are evicted in LRU-by-last-hit order.
// The currently-writing segment and any segment with an in-flight
// reader are never evicted.
//
// Failure policy. The store never fails a run: a failed append is
// returned to the caller, whose run already succeeded (the campaign
// keeps the result and reports the lost record), and a failed or
// corrupt read-back counts, drops the index entry and reports a miss, so
// the caller recomputes. An append that may have left partial bytes
// retires its segment from writing; the next open trims them.
package store

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Record framing:
//
//	!<8 hex chars of crc32c(payload)> <payload JSON>\n
const (
	crcSigil     = '!'
	crcHexLen    = 8
	crcPrefixLen = crcHexLen + 2 // sigil + hex + space
	// maxRecordBytes bounds one record (a Result with samples and
	// histograms is tens of KB).
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// record is one segment line's payload: the writing build's simulator
// fingerprint, the config key, and the result (which embeds its config,
// keeping segments self-describing for store-verify).
type record struct {
	FP     string      `json:"fp"`
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if absent. Required.
	Dir string
	// BudgetBytes caps the directory's segment bytes; 0 disables GC.
	BudgetBytes int64
	// Fingerprint overrides the build fingerprint (tests simulate a
	// simulator change with it); empty means Fingerprint().
	Fingerprint string
	// SegmentBytes is the roll threshold for the writing segment;
	// <= 0 means 1 MiB. Smaller segments give GC finer granularity.
	SegmentBytes int64
	// Logf receives degradation notices; nil means silent.
	Logf func(format string, args ...any)
}

// segment is one on-disk segment file and its in-memory bookkeeping.
type segment struct {
	name    string // base name, e.g. seg-00000012.seg
	path    string
	seq     uint64
	size    int64
	lastHit int64 // logical LRU clock value of the most recent hit
	refs    int   // in-flight readers; > 0 pins the segment against GC
	keys    []string
	rd      *os.File // lazily opened read handle
}

// loc addresses one indexed record.
type loc struct {
	seg *segment
	off int64
	n   int
}

// meta is the small durable side file: the segment sequence counter and
// each segment's last-hit clock, so LRU order survives restarts.
type meta struct {
	Seq     uint64           `json:"seq"`
	Clock   int64            `json:"clock"`
	LastHit map[string]int64 `json:"last_hit,omitempty"`
}

// Store is a durable content-addressed result store. All methods are
// safe for concurrent use, and all are safe on a nil receiver (a nil
// *Store is the "no cache" configuration: every Get misses, every Put
// is dropped, Do computes directly).
type Store struct {
	dir    string
	fp     string
	budget int64
	segMax int64
	logf   func(string, ...any)

	mu    sync.Mutex
	segs  []*segment // open order == seq order; last is the writing segment
	index map[string]loc
	w     *os.File // append handle of the writing segment
	clock int64

	fmu     sync.Mutex
	flights map[string]*flight

	closed bool
}

// Open opens (or creates) the store rooted at opts.Dir, rebuilding the
// index from the segment files. A corrupt record is skipped and
// counted; a torn final record is trimmed. Open failures are counted in
// the metrics tree's store group (open_errors).
func Open(opts Options) (*Store, error) {
	s, err := open(opts)
	if err != nil {
		telemetry.StoreC.OpenErrors.Add(1)
		return nil, err
	}
	telemetry.StoreView.Show(s.gauges)
	return s, nil
}

func open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Dir is required")
	}
	if err := fault.Err(fault.SiteStoreOpen); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", opts.Dir, err)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     opts.Dir,
		fp:      opts.Fingerprint,
		budget:  opts.BudgetBytes,
		segMax:  opts.SegmentBytes,
		logf:    opts.Logf,
		index:   make(map[string]loc),
		flights: make(map[string]*flight),
	}
	if s.fp == "" {
		s.fp = Fingerprint()
	}
	if s.segMax <= 0 {
		s.segMax = 1 << 20
	}

	var m meta
	if b, err := os.ReadFile(filepath.Join(s.dir, "meta.json")); err == nil {
		// A corrupt meta costs only LRU order and restarts the sequence
		// above the scanned segments; the records themselves are intact.
		json.Unmarshal(b, &m) //nolint:errcheck
	}
	s.clock = m.Clock

	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		seg := &segment{name: filepath.Base(path), path: path}
		fmt.Sscanf(seg.name, "seg-%d.seg", &seg.seq) //nolint:errcheck // unparsable names sort first and stay seq 0
		if lh, ok := m.LastHit[seg.name]; ok {
			seg.lastHit = lh
		}
		if err := s.scanSegment(seg); err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	// Resume appends into the last segment when it has room; otherwise
	// (or with no segments at all) the first Put rolls a fresh one.
	if n := len(s.segs); n > 0 && s.segs[n-1].size < s.segMax {
		w, err := os.OpenFile(s.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.w = w
	}
	if m.Seq > 0 {
		// Never reuse a sequence number, even after eviction.
		for _, seg := range s.segs {
			if seg.seq > m.Seq {
				m.Seq = seg.seq
			}
		}
	}
	s.gcLocked()
	return s, nil
}

// scanSegment rebuilds seg's index contribution. Records under other
// fingerprints are counted stale and kept un-indexed; corrupt records
// are skipped and counted; a torn tail — an incomplete final line, which
// only a crash or a failed append leaves — is trimmed, so the segment
// ends on a clean line boundary.
func (s *Store) scanSegment(seg *segment) error {
	f, err := os.Open(seg.path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 256<<10)
	var off int64
	torn := false
	goodEnd := int64(0)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			break
		}
		n := len(line)
		complete := n > 0 && line[n-1] == '\n'
		if complete {
			line = line[:n-1]
		}
		var rec record
		if !complete || parseRecord(line, &rec) != nil || rec.Key == "" || rec.Result == nil {
			if !complete {
				torn = true
			} else {
				telemetry.StoreC.CorruptRecords.Add(1)
			}
			off += int64(n)
			if err != nil {
				break
			}
			continue
		}
		if rec.FP == s.fp {
			s.index[rec.Key] = loc{seg: seg, off: off, n: n - 1}
			seg.keys = append(seg.keys, rec.Key)
		} else {
			telemetry.StoreC.StaleSkipped.Add(1)
		}
		off += int64(n)
		goodEnd = off
		if err != nil {
			break
		}
	}
	seg.size = off
	if torn {
		telemetry.StoreC.TornTails.Add(1)
		if err := os.Truncate(seg.path, goodEnd); err != nil {
			return fmt.Errorf("store: trimming torn tail of %s: %w", seg.name, err)
		}
		seg.size = goodEnd
	}
	return nil
}

// frameRecord renders one checksummed segment line (without newline).
func frameRecord(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, crcPrefixLen+len(payload))
	line[0] = crcSigil
	sum := crc32.Checksum(payload, crcTable)
	hex.Encode(line[1:1+crcHexLen], []byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	line[crcPrefixLen-1] = ' '
	copy(line[crcPrefixLen:], payload)
	return line, nil
}

// parseRecord decodes one framed line, verifying the checksum.
func parseRecord(line []byte, rec *record) error {
	if len(line) < crcPrefixLen || line[0] != crcSigil || line[crcPrefixLen-1] != ' ' {
		return fmt.Errorf("malformed record frame")
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], line[1:1+crcHexLen]); err != nil {
		return fmt.Errorf("malformed checksum: %v", err)
	}
	payload := line[crcPrefixLen:]
	want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return json.Unmarshal(payload, rec)
}

// testReadHook, when non-nil, runs between a reader pinning its
// segment and the actual read; the GC property tests use it to hold a
// reader active while evictions run.
var testReadHook func()

// Get returns the result stored under the first of keys that holds one
// under the current fingerprint, counting one hit or one miss. A
// read-back failure (I/O or checksum) counts, drops the entry, and
// moves on to the next key — the caller recomputes when none is left.
func (s *Store) Get(keys ...string) (*sim.Result, bool) {
	return s.get(keys, true, true)
}

// Lookup is Get of one key without miss accounting, for re-checks on
// paths whose admission-time miss was already counted (the fan-out
// group start).
func (s *Store) Lookup(key string) (*sim.Result, bool) {
	return s.get([]string{key}, true, false)
}

// Peek is Get without hit or miss accounting, for reads that replay a
// result rather than satisfy a run (a finished campaign's stream).
func (s *Store) Peek(keys ...string) (*sim.Result, bool) {
	return s.get(keys, false, false)
}

func (s *Store) get(keys []string, countHit, countMiss bool) (*sim.Result, bool) {
	for _, key := range keys {
		if res, ok := s.read(key); ok {
			if countHit {
				telemetry.StoreC.Hits.Add(1)
			}
			return res, true
		}
	}
	if countMiss {
		telemetry.StoreC.Misses.Add(1)
	}
	return nil, false
}

// read returns key's result, or false when key is not indexed or its
// read-back fails.
func (s *Store) read(key string) (*sim.Result, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	l, ok := s.index[key]
	if !ok || s.closed {
		s.mu.Unlock()
		return nil, false
	}
	seg := l.seg
	seg.refs++ // pin against GC for the duration of the read
	s.clock++
	seg.lastHit = s.clock
	rd, rdErr := s.reader(seg)
	s.mu.Unlock()

	if testReadHook != nil {
		testReadHook()
	}
	res, err := readRecord(rd, rdErr, l, key, s.fp)

	s.mu.Lock()
	seg.refs--
	if err != nil {
		delete(s.index, key)
	}
	s.mu.Unlock()

	if err != nil {
		telemetry.StoreC.ReadErrors.Add(1)
		s.logfSafe("store: reading %s from %s failed (recomputing): %v", key[:8], seg.name, err)
		return nil, false
	}
	return res, true
}

// Size returns the on-disk bytes of key's record under the current
// fingerprint, newline included, or 0 when key is not stored.
func (s *Store) Size(key string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.index[key]; ok {
		return int64(l.n) + 1
	}
	return 0
}

// reader returns seg's lazily opened read handle (caller holds s.mu).
func (s *Store) reader(seg *segment) (*os.File, error) {
	if seg.rd != nil {
		return seg.rd, nil
	}
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	seg.rd = f
	return f, nil
}

// readRecord reads and verifies one pinned record; it runs without the
// store lock (ReadAt is safe for concurrent use).
func readRecord(rd *os.File, rdErr error, l loc, key, fp string) (*sim.Result, error) {
	if rdErr != nil {
		return nil, rdErr
	}
	if err := fault.Err(fault.SiteStoreRead); err != nil {
		return nil, err
	}
	buf := make([]byte, l.n)
	if _, err := rd.ReadAt(buf, l.off); err != nil {
		return nil, err
	}
	var rec record
	if err := parseRecord(buf, &rec); err != nil {
		return nil, err
	}
	if rec.Key != key || rec.FP != fp {
		return nil, fmt.Errorf("record identity mismatch (index drift)")
	}
	return rec.Result, nil
}

// Put durably appends one result under the current fingerprint: one
// write and one fsync. An append failure is counted and returned; the
// caller's run already succeeded, so what is lost is the record, not
// the result.
func (s *Store) Put(key string, res *sim.Result) error {
	if s == nil {
		return nil
	}
	err := s.put(key, res)
	if err != nil {
		telemetry.StoreC.PutErrors.Add(1)
		return err
	}
	telemetry.StoreC.Puts.Add(1)
	return nil
}

func (s *Store) put(key string, res *sim.Result) error {
	line, err := frameRecord(record{FP: s.fp, Key: key, Result: res})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(line) > maxRecordBytes {
		return fmt.Errorf("store: record for %s exceeds %d bytes", key, maxRecordBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if err := fault.Err(fault.SiteStoreAppend); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.w == nil || s.writing().size+int64(len(line))+1 > s.segMax {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	seg := s.writing()
	off := seg.size
	if fault.Fires(fault.SiteStoreAppendPartial) {
		// Simulated crash mid-append: half the record reaches the disk
		// with no newline — the torn write a power loss produces, which
		// the next open must trim as a benign torn tail.
		s.w.Write(line[:len(line)/2]) //nolint:errcheck // injected crash
		s.w.Sync()                    //nolint:errcheck
		s.retireWriterLocked()
		return fmt.Errorf("store: %w at %s", fault.ErrInjected, fault.SiteStoreAppendPartial)
	}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		s.retireWriterLocked()
		return fmt.Errorf("store: appending to %s: %w", seg.name, err)
	}
	// Push the record to stable storage, so a power loss, not just a
	// process crash, preserves the completed run.
	if err := s.w.Sync(); err != nil {
		s.retireWriterLocked()
		return fmt.Errorf("store: %w", err)
	}
	seg.size = off + int64(len(line)) + 1
	s.index[key] = loc{seg: seg, off: off, n: len(line)}
	seg.keys = append(seg.keys, key)
	s.clock++
	seg.lastHit = s.clock
	s.gcLocked()
	return nil
}

// writing returns the current writing segment (caller holds s.mu; s.w
// is non-nil).
func (s *Store) writing() *segment { return s.segs[len(s.segs)-1] }

// retireWriterLocked stops appending to the writing segment after a
// failed append, which may have left part of a record behind: the next
// Put starts a fresh segment, so no record is ever glued onto the
// debris, and the next open trims it (caller holds s.mu).
func (s *Store) retireWriterLocked() {
	s.w.Close() //nolint:errcheck // the failed append is already reported
	s.w = nil
}

// rollLocked closes the writing segment and starts the next one,
// fsyncing the directory so the new file survives a power loss.
func (s *Store) rollLocked() error {
	if s.w != nil {
		s.w.Close() //nolint:errcheck // records are already synced per append
		s.w = nil
	}
	seq := uint64(1)
	for _, seg := range s.segs {
		if seg.seq >= seq {
			seq = seg.seq + 1
		}
	}
	name := fmt.Sprintf("seg-%08d.seg", seq)
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if dir, derr := os.Open(s.dir); derr == nil {
		dir.Sync() //nolint:errcheck // advisory
		dir.Close()
	}
	s.clock++
	s.segs = append(s.segs, &segment{name: name, path: path, seq: seq, lastHit: s.clock})
	s.w = f
	return nil
}

// gcLocked evicts whole segments in LRU-by-last-hit order until the
// directory fits the byte budget. The writing segment and any segment
// with an in-flight reader are never evicted (caller holds s.mu).
func (s *Store) gcLocked() {
	if s.budget <= 0 {
		return
	}
	total := int64(0)
	for _, seg := range s.segs {
		total += seg.size
	}
	for total > s.budget {
		var victim *segment
		vi := -1
		for i, seg := range s.segs {
			if seg.refs > 0 || (s.w != nil && i == len(s.segs)-1) {
				continue
			}
			if victim == nil || seg.lastHit < victim.lastHit {
				victim, vi = seg, i
			}
		}
		if victim == nil {
			return // everything left is pinned or being written
		}
		for _, k := range victim.keys {
			if l, ok := s.index[k]; ok && l.seg == victim {
				delete(s.index, k)
			}
		}
		if victim.rd != nil {
			victim.rd.Close() //nolint:errcheck
		}
		os.Remove(victim.path) //nolint:errcheck // already out of the index; debris is re-scanned harmlessly
		s.segs = append(s.segs[:vi], s.segs[vi+1:]...)
		total -= victim.size
		telemetry.StoreC.Evictions.Add(1)
		telemetry.StoreC.EvictedBytes.Add(victim.size)
		s.logfSafe("store: evicted %s (%d bytes, LRU) to fit %d-byte budget", victim.name, victim.size, s.budget)
	}
}

// Stats is one size snapshot of the store.
type Stats struct {
	Fingerprint string
	Entries     int // indexed entries under the current fingerprint
	Segments    int
	Bytes       int64
}

// Stats snapshots the store's size.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Fingerprint: s.fp, Entries: len(s.index), Segments: len(s.segs)}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	return st
}

// gauges feeds the size fields of the metrics tree's store group.
func (s *Store) gauges() map[string]int64 {
	st := s.Stats()
	return map[string]int64{
		"bytes":    st.Bytes,
		"segments": int64(st.Segments),
		"entries":  int64(st.Entries),
	}
}

// Keys returns the indexed config keys under the current fingerprint,
// sorted (store-verify samples from it).
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FingerprintID returns the fingerprint this store serves.
func (s *Store) FingerprintID() string {
	if s == nil {
		return ""
	}
	return s.fp
}

// Close persists meta.json (write-temp→fsync→rename, like the service
// manifest) and closes every file handle.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.w != nil {
		if err := s.w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.w = nil
	}
	m := meta{Clock: s.clock, LastHit: make(map[string]int64, len(s.segs))}
	for _, seg := range s.segs {
		m.LastHit[seg.name] = seg.lastHit
		if seg.seq > m.Seq {
			m.Seq = seg.seq
		}
		if seg.rd != nil {
			seg.rd.Close() //nolint:errcheck
			seg.rd = nil
		}
	}
	if err := s.saveMeta(m); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// saveMeta writes meta.json atomically.
func (s *Store) saveMeta(m meta) error {
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, "meta.json.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, "meta.json")); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(s.dir); err == nil {
		dir.Sync() //nolint:errcheck // advisory
		dir.Close()
	}
	return nil
}

func (s *Store) logfSafe(format string, args ...any) {
	if s != nil && s.logf != nil {
		s.logf(format, args...)
	}
}

// ParseFlag parses a -result-store value of the form "dir" or
// "dir,MiB" into a directory and a byte budget (0 = unlimited).
func ParseFlag(v string) (dir string, budget int64, err error) {
	dir, mib, found := strings.Cut(v, ",")
	if dir == "" {
		return "", 0, fmt.Errorf("store: empty directory in -result-store %q", v)
	}
	if found {
		var n int64
		if _, err := fmt.Sscanf(strings.TrimSpace(mib), "%d", &n); err != nil || n < 0 {
			return "", 0, fmt.Errorf("store: bad MiB budget in -result-store %q", v)
		}
		budget = n << 20
	}
	return dir, budget, nil
}
