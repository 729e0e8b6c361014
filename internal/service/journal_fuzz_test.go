package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qlec/internal/prof"
)

// FuzzLoadJobJournal feeds LoadRecords two kinds of journal: arbitrary
// bytes, and a journal of interleaved job and batch records that
// SaveJob and SaveBatch wrote, cut at any byte offset (the shape a
// crash mid-append leaves). Nothing may panic, every record returned
// must carry a valid ID of its type and every unfinished batch one
// request per config (what its resume indexes), the cut journal must
// load exactly the last complete record of each ID, and the boot
// rewrite must leave a journal that reloads to the same records with
// no warnings. The offset index must read back every loaded record,
// and keep doing so after later appends, one of them behind a torn
// tail. Seeds live in testdata/fuzz/FuzzLoadJobJournal.
func FuzzLoadJobJournal(f *testing.F) {
	saved, records := savedJournal(f)
	f.Add(saved, uint16(len(saved)))
	f.Add([]byte{}, uint16(len(records[0])-1)) // first record without its newline
	f.Add([]byte("{\"id\":\"j00000001\"}\n{\"id\":\"j00000001\",\"state\":\"done\"}\n"), uint16(40))
	f.Add([]byte("null\n{}\n[]\n\n{\"id\":\"../x\"}\n{\"id\":\"j1\"} {\"id\":\"j2\"}\n{\"id\":\"j3\""), uint16(7))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		loadJournalBytes(t, dir, data)

		n := int(cut) % (len(saved) + 1)
		want := make(map[string]string)
		end := 0
		for _, rec := range records {
			end += len(rec)
			if end > n {
				break
			}
			var head struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec, &head); err != nil {
				t.Fatal(err)
			}
			want[head.ID] = string(rec[:len(rec)-1])
		}
		got := loadJournalBytes(t, dir, saved[:n])
		if len(got) != len(want) {
			t.Fatalf("journal cut at %d/%d loads %d records, want %d", n, len(saved), len(got), len(want))
		}
		for id, line := range got {
			if line != want[id] {
				t.Fatalf("journal cut at %d: record %s loads as\n%s\nwant\n%s", n, id, line, want[id])
			}
		}
	})
}

// savedJournal writes a sequence of job and batch records through
// SaveJob and SaveBatch and returns the journal's bytes and each
// record's line.
func savedJournal(f *testing.F) (journal []byte, lines [][]byte) {
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	req := Request{Kind: KindOne, Seed: 7, Lambda: 2}
	queued := []BatchConfig{{Index: 0, Kind: KindOne, Hash: "h4", State: StateQueued}, {Index: 1, Kind: KindOne, Hash: "h5", State: StateQueued}}
	usage := &prof.Usage{CPUSeconds: 0.5, WallSeconds: 0.25, AllocBytes: 1 << 20}
	records := []any{
		&Job{ID: "j00000001", Hash: "h1", State: StateQueued, CreatedAt: t0, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
		&Batch{ID: "b00000001", State: StateRunning, TraceID: "4bf92f3577b34da6a3ce929d0e0e4737", Configs: queued,
			CreatedAt: t0, Requests: []Request{req, {Kind: KindFig3}}},
		&Job{ID: "j00000002", Hash: "h2", State: StateQueued, CreatedAt: t0, Request: req},
		&Job{ID: "j00000001", Hash: "h1", State: StateRunning, Attempts: 1, CreatedAt: t0, StartedAt: t0},
		&Batch{ID: "b00000002", State: StateRunning, Configs: queued[:1], CreatedAt: t0, Requests: []Request{req}},
		&Job{ID: "j00000003", Hash: "h3", State: StateDone, CacheHit: true, CreatedAt: t0, FinishedAt: t0},
		&Job{ID: "j00000002", Hash: "h2", State: StateFailed, Attempts: 2, Error: "line one\nline \"two\" é", CreatedAt: t0},
		&Batch{ID: "b00000001", State: StateDone, TraceID: "4bf92f3577b34da6a3ce929d0e0e4737", CreatedAt: t0, FinishedAt: t0,
			Configs: []BatchConfig{
				{Index: 0, Kind: KindOne, Hash: "h4", State: StateDone, CacheHit: true, Proxied: true},
				{Index: 1, Kind: KindFig3, Hash: "h5", State: StateFailed, Error: "boom", Resources: usage},
			},
			ConfigsDone: 2, Failed: 1, CellsTotal: 3, CellsDone: 3, Resources: usage},
		&Job{ID: "j00000001", Hash: "h1", State: StateDone, Attempts: 1, CreatedAt: t0, FinishedAt: t0, Resources: usage},
	}
	for _, rec := range records {
		switch rec := rec.(type) {
		case *Job:
			err = st.SaveJob(rec)
		case *Batch:
			err = st.SaveBatch(rec)
		}
		if err != nil {
			f.Fatal(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, append(line, '\n'))
	}
	st.Close()
	journal, err = os.ReadFile(filepath.Join(st.dir, journalName))
	if err != nil {
		f.Fatal(err)
	}
	return journal, lines
}

// loadJournalBytes boots a store over dir with data as its journal and
// returns the records LoadRecords reads, as JSON by ID. Each must carry
// a valid ID of its type, an unfinished batch one request per config,
// and the rewrite LoadRecords may make must reload to the same records
// with no warnings.
func loadJournalBytes(t *testing.T, dir string, data []byte) map[string]string {
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Store{dir: dir}
	load := func() (map[string]string, []error) {
		jobs, batches, warns, err := st.LoadRecords()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(jobs)+len(batches))
		add := func(id string, prefix byte, rec any) {
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := out[id]; dup || !validID(id, prefix) {
				t.Fatalf("loaded record %q twice or under an invalid id", id)
			}
			out[id] = string(b)
		}
		for _, j := range jobs {
			add(j.ID, 'j', j)
		}
		for _, b := range batches {
			if !b.State.Terminal() && len(b.Requests) != len(b.Configs) {
				t.Fatalf("loaded unfinished batch %s with %d requests for %d configs", b.ID, len(b.Requests), len(b.Configs))
			}
			add(b.ID, 'b', b)
		}
		return out, warns
	}
	got, _ := load()
	checkIndex(t, st, got)
	again, warns := load()
	if len(warns) != 0 || len(again) != len(got) {
		t.Fatalf("rewritten journal reloads %d of %d records, warnings %v", len(again), len(got), warns)
	}
	for id, rec := range got {
		if again[id] != rec {
			t.Fatalf("rewrite changed record %s:\n%s\n%s", id, rec, again[id])
		}
	}
	checkIndex(t, st, got)

	// Later appends: a new job, a new state of a loaded record, then a
	// tail torn by a failed append and a record after it.
	want := make(map[string]string, len(got)+2)
	for id, rec := range got {
		want[id] = rec
	}
	save := func(j *Job) {
		if err := st.SaveJob(j); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		want[j.ID] = string(b)
	}
	next := 1
	for id := range got {
		next = max(next, idSeq(id)+1)
	}
	save(&Job{ID: recordID('j', next), State: StateQueued})
	for id := range got {
		if id[0] == 'j' {
			save(&Job{ID: id, State: StateFailed, Error: "later"})
			break
		}
	}
	checkIndex(t, st, want)
	st.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st.torn = true
	save(&Job{ID: recordID('j', next+1), State: StateDone})
	checkIndex(t, st, want)
	return got
}

// checkIndex requires the store's offset index to list exactly the
// records of want (JSON by ID) and to read each one back equal.
func checkIndex(t *testing.T, st *Store, want map[string]string) {
	t.Helper()
	n := 0
	for _, prefix := range []byte{'j', 'b'} {
		for _, seq := range st.Seqs(prefix) {
			id := recordID(prefix, seq)
			if _, ok := want[id]; !ok {
				t.Fatalf("index lists %s, which was not loaded", id)
			}
			n++
		}
	}
	if n != len(want) {
		t.Fatalf("index lists %d records, want %d", n, len(want))
	}
	for id, rec := range want {
		j, b, err := st.LoadRecord(id)
		if err != nil {
			t.Fatalf("index read of %s: %v", id, err)
		}
		var v any = j
		if b != nil {
			v = b
		}
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != rec {
			t.Fatalf("index reads %s as\n%s\nwant\n%s", id, got, rec)
		}
	}
}
