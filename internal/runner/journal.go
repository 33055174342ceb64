package runner

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ConfigKey returns the deterministic resume key for cfg: the SHA-256
// of the canonical JSON of the normalized config (every default
// resolved). Two configs that would produce identical results hash
// identically, so a resumed campaign recognises its completed runs even
// across processes and flag re-orderings.
func ConfigKey(cfg sim.Config) (string, error) {
	b, err := json.Marshal(cfg.Normalized())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// journalEntry is one JSONL line: the config key plus the completed
// result (which embeds its config, keeping the file self-describing).
type journalEntry struct {
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// Journal is an append-only checkpoint of completed results: one
// checksummed JSON line per result. Each Append writes one line and
// flushes it to stable storage, so a killed process loses at most the
// result it was formatting; LoadJournal tolerates a truncated final line
// for exactly that case. Safe for concurrent Appends.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// maxEntryBytes bounds one journal line (a Result with samples and
// histograms is tens of KB; 64MB leaves three orders of magnitude).
const maxEntryBytes = 64 << 20

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64
// and arm64), shared with the replay arena checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal line framing. A checksummed line is
//
//	!<8 hex chars of crc32c(payload)> <payload JSON>\n
//
// so a scan can verify each entry before trusting it: flipped bits
// anywhere in the payload fail the checksum instead of (best case)
// failing the JSON parse or (worst case) parsing into a silently wrong
// Result. Lines that start with '{' are legacy entries from
// pre-checksum journals; they still load, so an old resume file keeps
// working, and compaction rewrites them checksummed.
const (
	crcSigil     = '!'
	crcHexLen    = 8
	crcPrefixLen = crcHexLen + 2 // sigil + hex + space
)

// frameEntry renders one checksummed journal line, newline included.
func frameEntry(key string, res *sim.Result) ([]byte, error) {
	payload, err := json.Marshal(journalEntry{Key: key, Result: res})
	if err != nil {
		return nil, err
	}
	line := make([]byte, crcPrefixLen+len(payload)+1)
	line[0] = crcSigil
	sum := crc32.Checksum(payload, crcTable)
	hex.Encode(line[1:1+crcHexLen], []byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	line[crcPrefixLen-1] = ' '
	copy(line[crcPrefixLen:], payload)
	line[len(line)-1] = '\n'
	return line, nil
}

// parseLine decodes one journal line into e, verifying the checksum on
// framed lines and accepting bare-JSON legacy lines. The bool reports
// whether the line failed its CRC (as opposed to failing to parse).
func parseLine(line []byte, e *journalEntry) (err error, crcFailed bool) {
	if len(line) > 0 && line[0] == crcSigil {
		if len(line) < crcPrefixLen || line[crcPrefixLen-1] != ' ' {
			return fmt.Errorf("malformed checksum frame"), true
		}
		var sum [4]byte
		if _, err := hex.Decode(sum[:], line[1:1+crcHexLen]); err != nil {
			return fmt.Errorf("malformed checksum: %v", err), true
		}
		payload := line[crcPrefixLen:]
		want := uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3])
		if got := crc32.Checksum(payload, crcTable); got != want {
			return fmt.Errorf("checksum mismatch: %08x != %08x", got, want), true
		}
		return json.Unmarshal(payload, e), false
	}
	return json.Unmarshal(line, e), false
}

// LoadStats summarises one journal scan so resumes can report exactly
// what they recovered and what they dropped.
type LoadStats struct {
	// Entries counts intact entries loaded.
	Entries int
	// Skipped counts unusable non-final lines — mid-file corruption
	// (bit rot, a concurrent writer, manual editing) — that were
	// dropped while the scan continued.
	Skipped int
	// CRCFailed is the subset of Skipped dropped because a checksummed
	// line's payload no longer matched its CRC — corruption that would
	// previously have gone undetected whenever the damaged JSON still
	// parsed.
	CRCFailed int
	// TruncatedTail reports a benign final-line truncation: the one
	// corruption shape a crash mid-append legitimately produces.
	TruncatedTail bool
}

// LoadJournal reads a journal into a key → result map. A missing file
// yields an empty map. Only a truncated final line (a crash mid-append)
// is benign; a corrupt line anywhere else — bad JSON or a failed
// checksum — is skipped and counted in the returned LoadStats while
// every intact entry after it is still recovered, so one damaged line
// never silently discards the rest of a campaign's completed work.
func LoadJournal(path string) (map[string]*sim.Result, LoadStats, error) {
	done := make(map[string]*sim.Result)
	var st LoadStats
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return done, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxEntryBytes)
	// lastBad tracks whether the most recent line failed to load; if the
	// scan ends there, that failure is reclassified as a benign tail
	// truncation instead of a corrupt entry (a truncated checksummed
	// line shows up as a CRC mismatch, so lastCRC reclassifies too).
	lastBad, lastCRC := false, false
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lastBad, lastCRC = false, false
		var e journalEntry
		if err, crcFailed := parseLine(line, &e); err != nil {
			st.Skipped++
			if crcFailed {
				st.CRCFailed++
			}
			lastBad, lastCRC = true, crcFailed
			continue
		}
		if e.Key == "" || e.Result == nil {
			st.Skipped++
			continue
		}
		done[e.Key] = e.Result
		st.Entries++
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return nil, st, err
	}
	if lastBad {
		st.Skipped--
		if lastCRC {
			st.CRCFailed--
		}
		st.TruncatedTail = true
	}
	telemetry.Degraded.JournalLinesSkipped.Add(int64(st.Skipped))
	telemetry.Degraded.JournalCRCFailures.Add(int64(st.CRCFailed))
	return done, st, nil
}

// OpenJournal loads path's existing entries and opens it for appending,
// creating it if absent. A torn final line left by a crash mid-append is
// truncated away first, so the next append starts on a clean line
// boundary instead of gluing onto the debris and corrupting both lines.
func OpenJournal(path string) (*Journal, map[string]*sim.Result, LoadStats, error) {
	done, st, err := LoadJournal(path)
	if err != nil {
		return nil, nil, st, err
	}
	if err := fault.Err(fault.SiteJournalOpen); err != nil {
		return nil, nil, st, err
	}
	if err := trimTornTail(path); err != nil {
		return nil, nil, st, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, st, err
	}
	return &Journal{f: f}, done, st, nil
}

// trimTornTail truncates path to its last newline when the file ends
// mid-line — the shape a crash during an append leaves behind. The
// dropped bytes are exactly the entry LoadJournal already classified as
// a benign truncated tail; removing them keeps the file append-safe.
func trimTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	if size == 0 {
		return nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], size-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	// Scan backwards in chunks for the end of the last complete line.
	buf := make([]byte, 64<<10)
	off := size - 1 // the final byte is already known to be mid-line
	end := int64(0)
scan:
	for off > 0 {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		if _, err := f.ReadAt(buf[:n], off-n); err != nil {
			return err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				end = off - n + i + 1
				break scan
			}
		}
		off -= n
	}
	if err := f.Truncate(end); err != nil {
		return err
	}
	return f.Sync()
}

// Append records one completed result as a checksummed line, written
// with a single write and synced.
func (j *Journal) Append(key string, res *sim.Result) error {
	line, err := frameEntry(key, res)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := fault.Err(fault.SiteJournalAppend); err != nil {
		return err
	}
	if fault.Fires(fault.SiteJournalAppendPartial) {
		// Simulated crash mid-append: half the line reaches the file
		// with no newline — exactly the torn write a power loss
		// produces, which the next LoadJournal must classify as a
		// benign truncated tail.
		j.f.Write(line[:len(line)/2]) //nolint:errcheck // injected crash
		j.f.Sync()                    //nolint:errcheck
		return fmt.Errorf("%w at %s", fault.ErrInjected, fault.SiteJournalAppendPartial)
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	// Push the line to stable storage so a power loss, not just a
	// process crash, preserves completed work.
	return j.f.Sync()
}

// Close closes the underlying file; every appended line is already
// written.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// CompactStats describes one journal compaction.
type CompactStats struct {
	// Load is the scan of the original file; Load.Skipped corrupt lines
	// and superseded duplicate keys are what compaction drops.
	Load LoadStats
	// Entries is the number of unique entries rewritten.
	Entries int
	// BytesBefore and BytesAfter measure the file around the rewrite.
	BytesBefore, BytesAfter int64
}

// String renders the stats as one log line.
func (s CompactStats) String() string {
	line := fmt.Sprintf("journal compacted: %d entries, %d → %d bytes",
		s.Entries, s.BytesBefore, s.BytesAfter)
	if s.Load.Skipped > 0 {
		line += fmt.Sprintf(" (%d corrupt lines dropped", s.Load.Skipped)
		if s.Load.CRCFailed > 0 {
			line += fmt.Sprintf(", %d by checksum", s.Load.CRCFailed)
		}
		line += ")"
	}
	if s.Load.TruncatedTail {
		line += " (truncated final line from an interrupted append dropped)"
	}
	return line
}

// CompactJournal rewrites path to exactly one checksummed line per
// unique config key (the last occurrence wins), dropping corrupt lines,
// superseded duplicates and any torn tail — the growth a long-lived
// resume file accretes across campaigns. The rewrite is atomic:
// entries stream into a temp file in the same directory, the temp file
// is fsynced and renamed over the original, and the directory entry is
// synced, so a crash at any instant leaves either the old journal or
// the new one, never a mix. Entries are written in sorted key order, so
// compacting is deterministic: equal stores compact to byte-identical
// files.
func CompactJournal(path string) (CompactStats, error) {
	var st CompactStats
	fi, err := os.Stat(path)
	if err != nil {
		return st, err
	}
	st.BytesBefore = fi.Size()
	done, load, err := LoadJournal(path)
	if err != nil {
		return st, err
	}
	st.Load = load
	st.Entries = len(done)

	keys := make([]string, 0, len(done))
	for k := range done {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return st, err
	}
	// Any failure below must leave no temp debris behind.
	fail := func(err error) (CompactStats, error) {
		f.Close()
		os.Remove(tmp)
		return st, err
	}
	for _, k := range keys {
		if err := fault.Err(fault.SiteJournalCompactWrite); err != nil {
			return fail(err)
		}
		line, err := frameEntry(k, done[k])
		if err != nil {
			return fail(err)
		}
		if _, err := f.Write(line); err != nil {
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return st, err
	}
	if err := fault.Err(fault.SiteJournalCompactRename); err != nil {
		os.Remove(tmp)
		return st, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return st, err
	}
	// Persist the directory entry so the rename survives a power loss.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync() //nolint:errcheck // advisory: data is already safe in the file
		dir.Close()
	}
	if fi, err := os.Stat(path); err == nil {
		st.BytesAfter = fi.Size()
	}
	return st, nil
}
