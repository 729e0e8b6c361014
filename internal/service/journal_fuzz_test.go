package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qlec/internal/prof"
)

// FuzzLoadJobJournal feeds LoadJobs two kinds of journal: arbitrary
// bytes, and a journal SaveJob wrote, cut at any byte offset (the shape
// a crash mid-append leaves). Nothing may panic, every job returned
// must carry a valid ID, the cut journal must load exactly the last
// complete record of each job, and the boot rewrite must leave a
// journal that reloads to the same jobs with no warnings. Seeds live in
// testdata/fuzz/FuzzLoadJobJournal.
func FuzzLoadJobJournal(f *testing.F) {
	saved, records := savedJournal(f)
	f.Add(saved, uint16(len(saved)))
	f.Add([]byte{}, uint16(len(records[0])-1)) // first record without its newline
	f.Add([]byte("{\"id\":\"j00000001\"}\n{\"id\":\"j00000001\",\"state\":\"done\"}\n"), uint16(40))
	f.Add([]byte("null\n{}\n[]\n\n{\"id\":\"../x\"}\n{\"id\":\"j1\"} {\"id\":\"j2\"}\n{\"id\":\"j3\""), uint16(7))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		got := loadJournalBytes(t, dir, data)
		for id, j := range got {
			if !validID(id) || j.ID != id {
				t.Fatalf("loaded job %q under id %q", j.ID, id)
			}
		}

		n := int(cut) % (len(saved) + 1)
		want := make(map[string][]byte)
		end := 0
		for _, rec := range records {
			end += len(rec)
			if end > n {
				break
			}
			var j Job
			if err := json.Unmarshal(rec, &j); err != nil {
				t.Fatal(err)
			}
			want[j.ID] = rec[:len(rec)-1]
		}
		got = loadJournalBytes(t, dir, saved[:n])
		if len(got) != len(want) {
			t.Fatalf("journal cut at %d/%d loads %d jobs, want %d", n, len(saved), len(got), len(want))
		}
		for id, j := range got {
			b, err := json.Marshal(j)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(want[id]) {
				t.Fatalf("journal cut at %d: job %s loads as\n%s\nwant\n%s", n, id, b, want[id])
			}
		}
	})
}

// savedJournal writes a sequence of job records through SaveJob and
// returns the journal's bytes and each record's line.
func savedJournal(f *testing.F) (journal []byte, lines [][]byte) {
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	t0 := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	jobs := []Job{
		{ID: "j00000001", Hash: "h1", State: StateQueued, CreatedAt: t0, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
		{ID: "j00000002", Hash: "h2", State: StateQueued, CreatedAt: t0, Request: Request{Kind: KindOne, Seed: 7, Lambda: 2}},
		{ID: "j00000001", Hash: "h1", State: StateRunning, Attempts: 1, CreatedAt: t0, StartedAt: t0},
		{ID: "j00000003", Hash: "h3", State: StateDone, CacheHit: true, CreatedAt: t0, FinishedAt: t0},
		{ID: "j00000002", Hash: "h2", State: StateFailed, Attempts: 2, Error: "line one\nline \"two\" é", CreatedAt: t0},
		{ID: "j00000001", Hash: "h1", State: StateDone, Attempts: 1, CreatedAt: t0, FinishedAt: t0,
			Resources: &prof.Usage{CPUSeconds: 0.5, WallSeconds: 0.25, AllocBytes: 1 << 20}},
	}
	for i := range jobs {
		if err := st.SaveJob(&jobs[i]); err != nil {
			f.Fatal(err)
		}
		line, err := json.Marshal(&jobs[i])
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, append(line, '\n'))
	}
	st.Close()
	journal, err = os.ReadFile(filepath.Join(st.Dir(), journalName))
	if err != nil {
		f.Fatal(err)
	}
	return journal, lines
}

// loadJournalBytes boots a store over dir with data as its journal and
// returns the jobs LoadJobs reads. The rewrite it may make must reload
// to the same jobs with no warnings.
func loadJournalBytes(t *testing.T, dir string, data []byte) map[string]*Job {
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := &Store{dir: dir}
	jobs, _, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	again, warns, err := st.LoadJobs()
	if err != nil || len(warns) != 0 || len(again) != len(jobs) {
		t.Fatalf("rewritten journal reloads %d of %d jobs, warnings %v, err %v", len(again), len(jobs), warns, err)
	}
	out := make(map[string]*Job, len(jobs))
	for i, j := range jobs {
		a, _ := json.Marshal(j)
		b, _ := json.Marshal(again[i])
		if string(a) != string(b) {
			t.Fatalf("rewrite changed job %s:\n%s\n%s", j.ID, a, b)
		}
		out[j.ID] = j
	}
	return out
}
