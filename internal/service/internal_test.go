package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qlec/internal/experiment"
)

func tinyConfig() experiment.Config {
	cfg := experiment.PaperConfig()
	cfg.N = 16
	cfg.Side = 80
	cfg.K = 2
	cfg.Rounds = 2
	cfg.Seeds = []uint64{1}
	cfg.Lambdas = []float64{4}
	cfg.LifespanMaxRounds = 50
	cfg.Workers = 1
	return cfg
}

func TestRequestHashNormalization(t *testing.T) {
	base := Request{
		Kind:      KindOne,
		Config:    tinyConfig(),
		Protocols: []experiment.ProtocolID{experiment.QLEC},
		Lambda:    4,
		Seed:      1,
	}
	h, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// KindOne ignores the config's own sweep lists — the (Lambda, Seed)
	// parameters define the run — so they must not split the cache.
	alt := base
	alt.Config.Lambdas = []float64{8, 4, 2, 1}
	alt.Config.Seeds = []uint64{9, 8, 7}
	if ha, _ := alt.Hash(); ha != h {
		t.Error("kind-one hash depends on ignored Config.Lambdas/Seeds")
	}

	// Execution knobs don't change identity.
	alt = base
	alt.Config.Workers = 13
	if ha, _ := alt.Hash(); ha != h {
		t.Error("hash depends on Config.Workers")
	}

	// Parameters that change the simulation do change identity.
	for name, mutate := range map[string]func(*Request){
		"Kind":     func(r *Request) { r.Kind = KindFig3 },
		"Protocol": func(r *Request) { r.Protocols = []experiment.ProtocolID{experiment.FCM} },
		"Lambda":   func(r *Request) { r.Lambda = 2 },
		"Seed":     func(r *Request) { r.Seed = 2 },
		"Lifespan": func(r *Request) { r.Lifespan = true },
		"Config.N": func(r *Request) { r.Config.N = 17 },
	} {
		mod := base
		mutate(&mod)
		if hm, _ := mod.Hash(); hm == h {
			t.Errorf("mutating %s does not change the hash", name)
		}
	}

	// Sweep parameter lists are order-sensitive (they shape the output).
	ka := base
	ka.Kind = KindKSweep
	ka.Ks = []int{2, 4}
	kb := ka
	kb.Ks = []int{4, 2}
	haks, _ := ka.Hash()
	hbks, _ := kb.Hash()
	if haks == hbks {
		t.Error("ksweep hash ignores Ks order")
	}
}

// TestNormalizeDefaultsMinimalSubmission pins the HTTP ergonomics the
// README documents: a submission carrying only the deployment basics
// validates (auxiliary knobs default to the paper baseline) and shares
// its cache entry with one that spells those defaults out.
func TestNormalizeDefaultsMinimalSubmission(t *testing.T) {
	minimal := Request{
		Kind:      KindOne,
		Protocols: []experiment.ProtocolID{experiment.QLEC},
		Lambda:    4,
		Seed:      1,
	}
	minimal.Config.N = 100
	minimal.Config.Side = 200
	minimal.Config.K = 5
	minimal.Config.Rounds = 20
	minimal.Config.InitialEnergy = 5
	minimal.Config.Lambdas = []float64{4}
	minimal.Config.Seeds = []uint64{1}

	if err := minimal.Normalize().Validate(); err != nil {
		t.Fatalf("minimal submission rejected: %v", err)
	}

	spelled := minimal
	spelled.Config = experiment.PaperConfig()
	hm, err := minimal.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hs, err := spelled.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hm != hs {
		t.Fatal("minimal and spelled-out-defaults submissions hash differently")
	}
}

func TestRequestValidate(t *testing.T) {
	ok := Request{
		Kind:      KindOne,
		Config:    tinyConfig(),
		Protocols: []experiment.ProtocolID{experiment.QLEC},
		Lambda:    4,
		Seed:      1,
	}.Normalize()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []Request{
		{Kind: "nope", Config: tinyConfig(), Protocols: []experiment.ProtocolID{experiment.QLEC}, Lambda: 4},
		{Kind: KindOne, Config: tinyConfig(), Protocols: nil, Lambda: 4},
		{Kind: KindOne, Config: tinyConfig(), Protocols: []experiment.ProtocolID{"bogus"}, Lambda: 4},
		{Kind: KindOne, Config: tinyConfig(), Protocols: []experiment.ProtocolID{experiment.QLEC}, Lambda: 0},
		{Kind: KindKSweep, Config: tinyConfig(), Protocols: []experiment.ProtocolID{experiment.QLEC}, Lambda: 4},
		{Kind: KindNSweep, Config: tinyConfig(), Protocols: []experiment.ProtocolID{experiment.QLEC}, Lambda: 4},
		{Kind: KindFig3, Config: func() experiment.Config { c := tinyConfig(); c.Rounds = 0; return c }(), Protocols: []experiment.ProtocolID{experiment.QLEC}},
	}
	for i, r := range bad {
		if err := r.Normalize().Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(fmt.Errorf("wrapped: %w", ErrTransient)) {
		t.Error("wrapped ErrTransient not transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error transient")
	}
	if IsTransient(nil) {
		t.Error("nil transient")
	}
}

func TestJobQueueFIFOAndClose(t *testing.T) {
	q := newJobQueue()
	q.push("a")
	q.push("b")
	if q.depth() != 2 {
		t.Fatalf("depth = %d", q.depth())
	}
	if id, ok := q.pop(); !ok || id != "a" {
		t.Fatalf("pop = %q, %v", id, ok)
	}
	if id, ok := q.pop(); !ok || id != "b" {
		t.Fatalf("pop = %q, %v", id, ok)
	}
	// pop blocks until push or close.
	got := make(chan string, 1)
	go func() {
		id, ok := q.pop()
		if ok {
			got <- id
		} else {
			got <- "<closed>"
		}
	}()
	q.push("c")
	if id := <-got; id != "c" {
		t.Fatalf("blocked pop = %q", id)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.pop(); ok {
				t.Error("pop succeeded after close")
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.close()
	wg.Wait()
	q.push("dropped")
	if q.depth() != 0 {
		t.Fatal("push after close retained the id")
	}
}

func TestEventHubReplayAndClose(t *testing.T) {
	h := newEventHub()
	h.publish(Event{Type: EventRound})
	h.publish(Event{Type: EventRound})

	replay, live, cancel := h.subscribe(0)
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 1 || replay[1].Seq != 2 {
		t.Fatalf("replay = %+v", replay)
	}
	h.publish(Event{Type: EventState, State: StateDone})
	e := <-live
	if e.Seq != 3 || e.State != StateDone {
		t.Fatalf("live event = %+v", e)
	}
	h.close()
	if _, ok := <-live; ok {
		t.Fatal("live channel not closed")
	}

	// Subscribing after close replays history and returns a closed
	// channel.
	replay, live, cancel = h.subscribe(1)
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("post-close replay from seq>1 = %d events", len(replay))
	}
	if _, ok := <-live; ok {
		t.Fatal("post-close channel not closed")
	}
	h.publish(Event{Type: EventRound}) // dropped, no panic
}

func TestEventHubLaggingSubscriberDoesNotBlock(t *testing.T) {
	h := newEventHub()
	_, live, cancel := h.subscribe(0)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < subChanBuf*4; i++ {
			h.publish(Event{Type: EventRound, Round: &RoundProgress{Round: i}})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a lagging subscriber")
	}
	// The subscriber still sees the most recent events, just with a gap.
	n := 0
	for range live {
		n++
		if n == subChanBuf {
			break
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{ID: "j00000001", Hash: "00", State: StateQueued, CreatedAt: time.Now().UTC()}
	if err := st.SaveJob(j); err != nil {
		t.Fatal(err)
	}
	jobs, _, warns, err := st.LoadRecords()
	if err != nil || len(warns) != 0 {
		t.Fatalf("load: %v, warnings: %v", err, warns)
	}
	if len(jobs) != 1 || jobs[0].ID != j.ID || jobs[0].State != StateQueued {
		t.Fatalf("loaded %+v", jobs)
	}

	hash := "4f2d8a7e6c5b4a3928170605f4e3d2c1b0a998877665544332211aabbccddeeff"[:64]
	env := &ResultEnvelope{Kind: KindOne, Hash: hash}
	if err := st.SaveResult(hash, env); err != nil {
		t.Fatal(err)
	}
	back, err := st.LoadResult(hash)
	if err != nil || back.Kind != KindOne {
		t.Fatalf("load result: %+v, %v", back, err)
	}
	entries, err := os.ReadDir(filepath.Join(st.dir, "results"))
	if err != nil || len(entries) != 1 || entries[0].Name() != hash+".json" {
		t.Fatalf("results dir = %v, %v; want only %s.json", entries, err, hash)
	}
	if _, err := st.LoadResult("0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing result error = %v", err)
	}
}

// TestJournalTornLastLine: a crash mid-append leaves a torn last line.
// Reload skips it with a warning and keeps the last complete record of
// each job; the boot rewrite leaves one line per job, and later appends
// reload cleanly without another rewrite.
func TestJournalTornLastLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Job{
		{ID: "j00000001", State: StateQueued},
		{ID: "j00000002", State: StateQueued},
		{ID: "j00000001", State: StateRunning},
		{ID: "j00000001", State: StateDone},
	} {
		if err := st.SaveJob(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j00000003","state":"que`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, warns, err := st.LoadRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), "torn") {
		t.Fatalf("warnings %v, want one about the torn line", warns)
	}
	if len(jobs) != 2 || jobs[0].State != StateDone || jobs[1].State != StateQueued {
		t.Fatalf("loaded %+v, want j1 done and j2 queued", jobs)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(string(raw), "\n"); len(lines) != 3 || lines[2] != "" {
		t.Fatalf("rewritten journal %q, want two complete lines", raw)
	}

	if err := st.SaveJob(&Job{ID: "j00000003", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	before, _ := os.ReadFile(path)
	jobs, _, warns, err = st.LoadRecords()
	if err != nil || len(warns) != 0 || len(jobs) != 3 {
		t.Fatalf("reload after append: %d jobs, warnings %v, err %v", len(jobs), warns, err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatal("a clean journal was rewritten")
	}
}

// TestStoreConcurrentSavesOfOneResult: duplicate completions and an
// owner PUT racing a local completion save the same hash at once. Every
// save must succeed, every load must see a whole envelope, and the
// results dir must end with the one record, mode 0644.
func TestStoreConcurrentSavesOfOneResult(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.Repeat("ab", 32)
	env := &ResultEnvelope{Kind: KindNSweep, Hash: hash, NSweep: make([]experiment.NSweepPoint, 50)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := st.SaveResult(hash, env); err != nil {
					t.Error(err)
					return
				}
				back, err := st.LoadResult(hash)
				if err != nil {
					t.Error(err)
					return
				}
				if len(back.NSweep) != len(env.NSweep) {
					t.Errorf("loaded %d points, want %d", len(back.NSweep), len(env.NSweep))
					return
				}
			}
		}()
	}
	wg.Wait()
	entries, err := os.ReadDir(filepath.Join(st.dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != hash+".json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("results dir holds %v, want only %s.json", names, hash)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("result file mode %v, want 0644", info.Mode().Perm())
	}
}

func TestStoreRejectsUnsafeNames(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("../../etc/passwd", &ResultEnvelope{}); err == nil {
		t.Fatal("path traversal accepted as result hash")
	}
	if _, err := st.LoadResult("../escape"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("traversal load error = %v", err)
	}
	if err := st.SaveJob(&Job{ID: "../evil"}); err == nil {
		t.Fatal("path traversal accepted as job id")
	}
}
