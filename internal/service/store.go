package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound reports a missing job or result.
var ErrNotFound = errors.New("service: not found")

// journalName is the job journal's file name under the data directory.
const journalName = "jobs.jsonl"

// Store is the daemon's crash-safe persistence layer. Job records go to
// one append-only journal, <dir>/jobs.jsonl: each state change appends
// one JSON line, and on reload the last complete line of each job wins.
// Results (<dir>/results) and batches (<dir>/batches) are one file per
// record, written atomically (temp file + rename) so a crash mid-write
// never corrupts one. Everything reloads on restart — finished jobs
// keep their states, interrupted ones re-enter the queue (see Server
// start-up).
type Store struct {
	dir string

	mu      sync.Mutex // guards journal and torn
	journal *os.File   // O_APPEND handle, opened by the first SaveJob
	// torn marks a journal that may end inside a line (a failed append,
	// or a torn tail the boot rewrite could not remove): the next
	// append starts a fresh line so its record is not lost with it.
	torn bool
}

// OpenStore creates (if needed) and opens a data directory. It creates
// no journal: that happens on the first SaveJob.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "batches")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the root data directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal handle; a later SaveJob reopens it.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
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

// SaveJob appends one job record to the journal as a single write of
// one line, so a crash can tear at most the journal's last line.
func (s *Store) SaveJob(j *Job) error {
	if !validID(j.ID) {
		return fmt.Errorf("service: refusing to persist job with unsafe id %q", j.ID)
	}
	line, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("service: marshal job %s: %w", j.ID, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn {
		line = append([]byte{'\n'}, line...)
	}
	if s.journal == nil {
		f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("service: save job %s: %w", j.ID, err)
		}
		s.journal = f
	}
	n, err := s.journal.Write(line)
	s.torn = err != nil && (s.torn || n > 0)
	if err != nil {
		return fmt.Errorf("service: save job %s: %w", j.ID, err)
	}
	return nil
}

// LoadJobs reads the latest record of every job, sorted by ID (IDs are
// zero-padded sequence numbers, so this is submission order).
// Unreadable records are skipped with a warning, not fatal — one
// corrupt line must not brick the daemon; err reports only a journal
// or directory that cannot be read at all.
//
// It runs once, at boot, before the first SaveJob. A journal holding
// superseded, unreadable or torn lines is then rewritten through
// writeAtomic with one line per job, which also bounds its growth
// across restarts. A data directory in the older one-file-per-job
// layout (jobs/<id>.json) is folded into the journal the same way, and
// jobs/ is removed once the journal holds its records.
func (s *Store) LoadJobs() (jobs []*Job, warns []error, err error) {
	latest := make(map[string]jobLine)
	legacyDir := filepath.Join(s.dir, "jobs")
	legacy, warns, err := loadLegacyJobs(legacyDir, latest)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(s.journalPath())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("service: load jobs: %w", err)
	}
	clean, jwarns := parseJournal(data, latest)
	warns = append(warns, jwarns...)
	for _, r := range latest {
		jobs = append(jobs, r.job)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })

	if !clean || legacy {
		var buf []byte
		for _, j := range jobs {
			buf = append(append(buf, latest[j.ID].line...), '\n')
		}
		if err := writeAtomic(s.journalPath(), buf); err != nil {
			// Keep going on the old journal (and jobs/): the next boot
			// retries. A torn tail stays, so appends start a new line.
			warns = append(warns, fmt.Errorf("service: rewrite job journal: %w", err))
			s.mu.Lock()
			s.torn = len(data) > 0 && data[len(data)-1] != '\n'
			s.mu.Unlock()
			return jobs, warns, nil
		}
	}
	if legacy {
		if err := os.RemoveAll(legacyDir); err != nil {
			warns = append(warns, fmt.Errorf("service: remove folded job records: %w", err))
		}
	}
	return jobs, warns, nil
}

// jobLine is one job's latest record: decoded, and as the single JSON
// line the boot rewrite copies.
type jobLine struct {
	job  *Job
	line []byte
}

// parseJournal reads journal bytes into latest, keyed by job ID: each
// newline-terminated line holds one job record, and a later line
// replaces an earlier one of the same job. A line that is not one job
// object with a valid ID is skipped with a warning, and so are bytes
// after the last newline (an append torn by a crash). clean reports a
// journal with nothing skipped and no job recorded twice.
func parseJournal(data []byte, latest map[string]jobLine) (clean bool, warns []error) {
	clean = true
	for n := 1; len(data) > 0; n++ {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			warns = append(warns, fmt.Errorf("service: job journal line %d: torn record (%d bytes, no newline) skipped", n, len(data)))
			return false, warns
		}
		line := data[:i]
		data = data[i+1:]
		j, err := decodeJob(line)
		if err != nil {
			warns = append(warns, fmt.Errorf("service: job journal line %d: %w", n, err))
			clean = false
			continue
		}
		if _, dup := latest[j.ID]; dup {
			clean = false
		}
		latest[j.ID] = jobLine{j, line}
	}
	return clean, warns
}

// decodeJob decodes one job record: a single JSON object carrying a
// valid job ID.
func decodeJob(b []byte) (*Job, error) {
	if b := bytes.TrimLeft(b, " \t\r\n"); len(b) == 0 || b[0] != '{' {
		return nil, fmt.Errorf("want a JSON object, got %.20q", b)
	}
	var j Job
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	if !validID(j.ID) {
		return nil, fmt.Errorf("invalid job id %q", j.ID)
	}
	return &j, nil
}

// loadLegacyJobs reads a jobs/ directory in the one-file-per-job layout
// into latest; found reports whether the directory exists.
func loadLegacyJobs(dir string, latest map[string]jobLine) (found bool, warns []error, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil, nil
	}
	if err != nil {
		return false, nil, fmt.Errorf("service: load jobs: %w", err)
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
		j, err := decodeJob(b)
		if err != nil {
			warns = append(warns, fmt.Errorf("service: job record %s: %w", name, err))
			continue
		}
		var line bytes.Buffer
		json.Compact(&line, b) // valid JSON: decodeJob accepted it
		latest[j.ID] = jobLine{j, line.Bytes()}
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

// ResultHashes lists every persisted result's content hash.
func (s *Store) ResultHashes() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "results"))
	if err != nil {
		return nil, fmt.Errorf("service: list results: %w", err)
	}
	var hashes []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		h := strings.TrimSuffix(name, ".json")
		if validHash(h) {
			hashes = append(hashes, h)
		}
	}
	return hashes, nil
}

// SaveBatch persists one batch record (requests included, so an
// interrupted batch can resume after a restart).
func (s *Store) SaveBatch(b *Batch) error {
	if !validBatchID(b.ID) {
		return fmt.Errorf("service: refusing to persist batch with unsafe id %q", b.ID)
	}
	data, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("service: marshal batch %s: %w", b.ID, err)
	}
	if err := writeAtomic(filepath.Join(s.dir, "batches", b.ID+".json"), data); err != nil {
		return fmt.Errorf("service: save batch %s: %w", b.ID, err)
	}
	return nil
}

// LoadBatches reads every batch record, sorted by ID (submission
// order). Unreadable records are skipped, not fatal.
func (s *Store) LoadBatches() ([]*Batch, []error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "batches"))
	if err != nil {
		return nil, []error{fmt.Errorf("service: load batches: %w", err)}
	}
	var batches []*Batch
	var warns []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, "batches", name))
		if err != nil {
			warns = append(warns, err)
			continue
		}
		var b Batch
		if err := json.Unmarshal(data, &b); err != nil {
			warns = append(warns, fmt.Errorf("service: batch record %s: %w", name, err))
			continue
		}
		batches = append(batches, &b)
	}
	sort.Slice(batches, func(i, k int) bool { return batches[i].ID < batches[k].ID })
	return batches, warns
}

// validBatchID accepts the server's own "b"-prefixed decimal batch IDs.
func validBatchID(id string) bool {
	if len(id) < 2 || len(id) > 32 || id[0] != 'b' {
		return false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
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

// validID accepts the server's own "j"-prefixed decimal job IDs.
func validID(id string) bool {
	if len(id) < 2 || len(id) > 32 || id[0] != 'j' {
		return false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
