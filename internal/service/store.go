package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNotFound reports a missing job or result.
var ErrNotFound = errors.New("service: not found")

// journalName is the record journal's file name under the data
// directory (named when it held job records alone).
const journalName = "jobs.jsonl"

// Store is the daemon's crash-safe persistence layer. It has one way to
// persist a record and one way to persist a blob.
//
// Job and batch records go to one append-only journal,
// <dir>/jobs.jsonl: each save appends one JSON line, and on reload the
// last complete line of each ID wins. The ID's prefix ("j" or "b") says
// which record type a line holds. A job appends a line per state
// change; a batch appends one at submit, carrying its requests, and one
// at its terminal state, without them. Results are content-addressed
// blobs, one file each under <dir>/results, written atomically (temp
// file + rename) so a crash mid-write never corrupts one. Everything
// reloads on restart: finished records keep their states, interrupted
// ones resume (see Server.reload).
//
// The store indexes the journal: for each record ID it keeps the offset
// of the ID's latest line, so LoadRecord reads one record back with a
// single positioned read. The server keeps only live and recently
// finished records in memory and serves the rest through this index.
type Store struct {
	dir string

	mu sync.Mutex // guards everything below
	// journal is the O_APPEND handle, opened by the first append or
	// indexed read; size is the journal's length while it is open.
	journal *os.File
	size    int64
	// torn marks a journal that may end inside a line (a failed append,
	// or a torn tail the boot rewrite could not remove): the next
	// append starts a fresh line so its record is not lost with it.
	torn bool
	// jobAt and batchAt index the journal's job and batch lines.
	jobAt, batchAt offsets
}

// OpenStore creates (if needed) and opens a data directory. It creates
// only results/; the journal appears with the first saved record.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Close releases the journal handle; a later save or read reopens it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// openLocked opens the journal handle if it is not open and notes the
// journal's length; caller holds s.mu.
func (s *Store) openLocked() error {
	if s.journal != nil {
		return nil
	}
	f, err := os.OpenFile(s.journalPath(), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return err
	}
	s.journal, s.size = f, size
	return nil
}

// offsetsOf returns the index of one record type ('j' or 'b'); nil for
// any other prefix. Caller holds s.mu.
func (s *Store) offsetsOf(prefix byte) *offsets {
	switch prefix {
	case 'j':
		return &s.jobAt
	case 'b':
		return &s.batchAt
	}
	return nil
}

func (s *Store) journalPath() string {
	return filepath.Join(s.dir, journalName)
}

func (s *Store) resultPath(hash string) string {
	return filepath.Join(s.dir, "results", hash+".json")
}

// writeAtomic writes data to a temp file of its own next to path and
// renames it into place. One record can be saved by several goroutines
// at once (a duplicate cell completion, an owner PUT racing a local
// completion); a private temp file per call means each rename moves a
// whole file and the last one wins. Temp names end in ".tmp", never
// ".json", so no loader reads one.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// SaveJob appends one job record to the journal.
func (s *Store) SaveJob(j *Job) error { return s.appendRecord('j', j.ID, j) }

// SaveBatch appends one batch record to the journal.
func (s *Store) SaveBatch(b *Batch) error { return s.appendRecord('b', b.ID, b) }

// appendRecord appends rec, whose ID must carry prefix, to the journal
// as a single write of one line, so a crash can tear at most the
// journal's last line, and indexes the line.
func (s *Store) appendRecord(prefix byte, id string, rec any) error {
	if !validID(id, prefix) {
		return fmt.Errorf("service: refusing to persist record with unsafe id %q", id)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: marshal record %s: %w", id, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.openLocked(); err != nil {
		return fmt.Errorf("service: save record %s: %w", id, err)
	}
	off := s.size
	if s.torn {
		line = append([]byte{'\n'}, line...)
		off++
	}
	n, err := s.journal.Write(line)
	s.size += int64(n)
	s.torn = err != nil && (s.torn || n > 0)
	if err != nil {
		return fmt.Errorf("service: save record %s: %w", id, err)
	}
	s.offsetsOf(prefix).set(idSeq(id), off)
	return nil
}

// LoadRecord reads the latest record of one job or batch back through
// the offset index (one of job and batch is set); ErrNotFound when the
// journal holds no line for id.
func (s *Store) LoadRecord(id string) (*Job, *Batch, error) {
	if id == "" || !validID(id, id[0]) {
		return nil, nil, ErrNotFound
	}
	s.mu.Lock()
	line, err := s.readLocked(id)
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	got, r, err := decodeRecord(line)
	if err == nil && got != id {
		err = fmt.Errorf("index points at record %s", got)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("service: load record %s: %w", id, err)
	}
	return r.job, r.batch, nil
}

// readLocked returns the journal line the index holds for id, without
// its newline; caller holds s.mu.
func (s *Store) readLocked(id string) ([]byte, error) {
	o := s.offsetsOf(id[0])
	if o == nil {
		return nil, ErrNotFound
	}
	off, ok := o.get(idSeq(id))
	if !ok {
		return nil, ErrNotFound
	}
	if err := s.openLocked(); err != nil {
		return nil, fmt.Errorf("service: load record %s: %w", id, err)
	}
	buf := make([]byte, 4096)
	for n := 0; ; {
		m, err := s.journal.ReadAt(buf[n:], off+int64(n))
		if i := bytes.IndexByte(buf[n:n+m], '\n'); i >= 0 {
			return buf[:n+i], nil
		}
		n += m
		if err != nil { // io.EOF: the index points past the last newline
			return nil, fmt.Errorf("service: load record %s: %w", id, err)
		}
		buf = append(buf, make([]byte, len(buf))...)
	}
}

// Seqs returns the sequence numbers of every record of one type ('j'
// for jobs, 'b' for batches) the journal holds, ascending.
func (s *Store) Seqs(prefix byte) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.offsetsOf(prefix); o != nil {
		return o.seqs()
	}
	return nil
}

// offsets indexes the journal lines of one record type: at[seq] is one
// plus the offset of the latest line of the record with that sequence
// number (0: no line). The server numbers records from 1 without gaps,
// so the index is a slice, 8 B a record. A number further than
// maxIndexGap past the slice's end, which only a corrupt or edited
// journal holds, goes to far instead, so one such line cannot allocate
// an index its size.
type offsets struct {
	at  []int64
	far map[int]int64
}

const maxIndexGap = 4096

func (o *offsets) set(seq int, off int64) {
	if seq >= len(o.at)+maxIndexGap {
		if o.far == nil {
			o.far = make(map[int]int64)
		}
		o.far[seq] = off + 1
		return
	}
	for len(o.at) <= seq {
		o.at = append(o.at, 0)
	}
	o.at[seq] = off + 1
	delete(o.far, seq)
}

func (o *offsets) get(seq int) (off int64, ok bool) {
	if seq < len(o.at) && o.at[seq] != 0 {
		return o.at[seq] - 1, true
	}
	off, ok = o.far[seq]
	return off - 1, ok
}

// seqs lists the indexed sequence numbers, ascending.
func (o *offsets) seqs() []int {
	var out []int
	for seq, v := range o.at {
		if v != 0 {
			out = append(out, seq)
		}
	}
	if len(o.far) > 0 {
		for seq := range o.far {
			out = append(out, seq)
		}
		slices.Sort(out)
	}
	return out
}

// LoadRecords reads the latest record of every job and batch, each
// list sorted by ID (IDs are zero-padded sequence numbers, so this is
// submission order), and indexes the journal it leaves. Unreadable
// records are skipped with a warning, not fatal — one corrupt line must
// not brick the daemon; err reports only a journal or directory that
// cannot be read at all.
//
// It runs once, at boot, before the first save. A journal holding
// superseded, unreadable or torn lines is then rewritten through
// writeAtomic with one line per record, which also bounds its growth
// across restarts. A data directory in an older one-file-per-record
// layout (jobs/<id>.json, batches/<id>.json) is folded into the
// journal the same way, and each folded directory is removed once the
// journal holds its records.
func (s *Store) LoadRecords() (jobs []*Job, batches []*Batch, warns []error, err error) {
	latest := make(map[string]record)
	var legacy []string
	for _, name := range []string{"jobs", "batches"} {
		dir := filepath.Join(s.dir, name)
		found, lwarns, err := loadLegacyDir(dir, latest)
		if err != nil {
			return nil, nil, nil, err
		}
		warns = append(warns, lwarns...)
		if found {
			legacy = append(legacy, dir)
		}
	}
	data, err := os.ReadFile(s.journalPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("service: load records: %w", err)
	}
	clean, jwarns := parseJournal(data, latest)
	warns = append(warns, jwarns...)
	ids := make([]string, 0, len(latest))
	for id := range latest {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	offs := make([]int64, len(ids)) // each record's line in the journal; -1: none
	for i, id := range ids {
		r := latest[id]
		offs[i] = r.off
		if r.job != nil {
			jobs = append(jobs, r.job)
		} else {
			batches = append(batches, r.batch)
		}
	}

	torn := false
	if !clean || len(legacy) > 0 {
		var buf []byte
		rewritten := make([]int64, len(ids))
		for i, id := range ids {
			rewritten[i] = int64(len(buf))
			buf = append(append(buf, latest[id].line...), '\n')
		}
		if err := writeAtomic(s.journalPath(), buf); err != nil {
			// Keep going on the old journal (and legacy dirs): the next
			// boot retries. A torn tail stays, so appends start a new line.
			warns = append(warns, fmt.Errorf("service: rewrite record journal: %w", err))
			torn = len(data) > 0 && data[len(data)-1] != '\n'
			legacy = nil
		} else {
			offs = rewritten
		}
	}
	for _, dir := range legacy {
		if err := os.RemoveAll(dir); err != nil {
			warns = append(warns, fmt.Errorf("service: remove folded records: %w", err))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A rewrite replaced the file an open handle reads. Each append was
	// one write, so closing loses nothing and its error changes nothing.
	_ = s.closeLocked()
	s.torn = torn
	s.jobAt, s.batchAt = offsets{}, offsets{}
	for i, id := range ids {
		if offs[i] >= 0 {
			s.offsetsOf(id[0]).set(idSeq(id), offs[i])
		}
	}
	return jobs, batches, warns, nil
}

// record is one ID's latest record: decoded as a job or a batch (the
// other is nil), as the single JSON line the boot rewrite copies, and
// as the line's offset in the journal (-1 for a record from a legacy
// directory).
type record struct {
	job   *Job
	batch *Batch
	line  []byte
	off   int64
}

// parseJournal reads journal bytes into latest, keyed by record ID:
// each newline-terminated line holds one record, and a later line
// replaces an earlier one of the same ID. A line decodeRecord rejects
// is skipped with a warning, and so are bytes after the last newline
// (an append torn by a crash). clean reports a journal with nothing
// skipped and no ID recorded twice.
func parseJournal(data []byte, latest map[string]record) (clean bool, warns []error) {
	clean = true
	for n, off := 1, 0; off < len(data); n++ {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			warns = append(warns, fmt.Errorf("service: record journal line %d: torn record (%d bytes, no newline) skipped", n, len(data)-off))
			return false, warns
		}
		line := data[off : off+i]
		id, r, err := decodeRecord(line)
		r.off = int64(off)
		off += i + 1
		if err != nil {
			warns = append(warns, fmt.Errorf("service: record journal line %d: %w", n, err))
			clean = false
			continue
		}
		if _, dup := latest[id]; dup {
			clean = false
		}
		latest[id] = r
	}
	return clean, warns
}

// decodeRecord decodes one record: a single JSON object whose ID picks
// its type, a job ("j") or a batch ("b"). A batch that has not finished
// must carry one request per config, or it could not resume.
func decodeRecord(b []byte) (id string, r record, err error) {
	if b := bytes.TrimLeft(b, " \t\r\n"); len(b) == 0 || b[0] != '{' {
		return "", r, fmt.Errorf("want a JSON object, got %.20q", b)
	}
	var head struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return "", r, err
	}
	r.line = b
	switch id = head.ID; {
	case validID(id, 'j'):
		r.job = new(Job)
		err = json.Unmarshal(b, r.job)
	case validID(id, 'b'):
		r.batch = new(Batch)
		err = json.Unmarshal(b, r.batch)
		if err == nil && !r.batch.State.Terminal() && len(r.batch.Requests) != len(r.batch.Configs) {
			err = fmt.Errorf("unfinished batch %s has %d requests for %d configs", id, len(r.batch.Requests), len(r.batch.Configs))
		}
	default:
		err = fmt.Errorf("invalid record id %q", id)
	}
	return id, r, err
}

// loadLegacyDir reads a directory in the one-file-per-record layout
// into latest; found reports whether the directory exists.
func loadLegacyDir(dir string, latest map[string]record) (found bool, warns []error, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil, nil
	}
	if err != nil {
		return false, nil, fmt.Errorf("service: load records: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			warns = append(warns, err)
			continue
		}
		var line bytes.Buffer
		if err := json.Compact(&line, b); err != nil {
			warns = append(warns, fmt.Errorf("service: record %s: %w", name, err))
			continue
		}
		id, r, err := decodeRecord(line.Bytes())
		if err != nil {
			warns = append(warns, fmt.Errorf("service: record %s: %w", name, err))
			continue
		}
		r.off = -1
		latest[id] = r
	}
	return true, warns, nil
}

// SaveResult persists one result envelope under its content hash.
func (s *Store) SaveResult(hash string, env *ResultEnvelope) error {
	if !validHash(hash) {
		return fmt.Errorf("service: refusing to persist result with unsafe hash %q", hash)
	}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("service: marshal result %s: %w", hash, err)
	}
	if err := writeAtomic(s.resultPath(hash), b); err != nil {
		return fmt.Errorf("service: save result %s: %w", hash, err)
	}
	return nil
}

// LoadResult reads one result envelope; ErrNotFound if absent.
func (s *Store) LoadResult(hash string) (*ResultEnvelope, error) {
	if !validHash(hash) {
		return nil, ErrNotFound
	}
	b, err := os.ReadFile(s.resultPath(hash))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("service: load result %s: %w", hash, err)
	}
	var env ResultEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("service: result record %s: %w", hash, err)
	}
	return &env, nil
}

// validHash accepts exactly the SHA-256 hex digests Request.Hash emits;
// anything else (in particular anything with path separators) is
// rejected before it can touch the filesystem.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for _, c := range h {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// recordID formats the ID of record seq of one type: the prefix ("j"
// for jobs, "b" for batches), then the sequence number, zero-padded to
// eight digits.
func recordID(prefix byte, seq int) string {
	return fmt.Sprintf("%c%08d", prefix, seq)
}

// idSeq parses the sequence number of a record ID that validID
// accepts; such an ID always parses.
func idSeq(id string) int {
	n, _ := strconv.Atoi(id[1:])
	return n
}

// validID accepts the server's own record IDs, exactly as recordID
// formats them, so that an ID and its sequence number name each other.
func validID(id string, prefix byte) bool {
	if len(id) < 9 || len(id) > 19 || id[0] != prefix || (len(id) > 9 && id[1] == '0') {
		return false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
