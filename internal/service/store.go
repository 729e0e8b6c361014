package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNotFound reports a missing job or result.
var ErrNotFound = errors.New("service: not found")

// Store is the daemon's crash-safe persistence layer: one JSON file per
// job under <dir>/jobs and one per result under <dir>/results, written
// atomically (temp file + rename) so a crash mid-write never corrupts a
// record. Everything reloads on restart — finished jobs keep their
// states, interrupted ones re-enter the queue (see Server start-up).
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens a data directory.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "results"), filepath.Join(dir, "batches")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the root data directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
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

// SaveJob persists one job record.
func (s *Store) SaveJob(j *Job) error {
	if !validID(j.ID) {
		return fmt.Errorf("service: refusing to persist job with unsafe id %q", j.ID)
	}
	b, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("service: marshal job %s: %w", j.ID, err)
	}
	if err := writeAtomic(s.jobPath(j.ID), b); err != nil {
		return fmt.Errorf("service: save job %s: %w", j.ID, err)
	}
	return nil
}

// LoadJobs reads every job record, sorted by ID (IDs are zero-padded
// sequence numbers, so this is submission order). Unreadable records
// are skipped, not fatal — one corrupt file must not brick the daemon.
func (s *Store) LoadJobs() ([]*Job, []error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, []error{fmt.Errorf("service: load jobs: %w", err)}
	}
	var jobs []*Job
	var warns []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, "jobs", name))
		if err != nil {
			warns = append(warns, err)
			continue
		}
		var j Job
		if err := json.Unmarshal(b, &j); err != nil {
			warns = append(warns, fmt.Errorf("service: job record %s: %w", name, err))
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	return jobs, warns
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
