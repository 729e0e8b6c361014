package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// tinyTournament keeps the matrix small enough for unit-test budgets.
func tinyTournament() TournamentConfig {
	c := PaperConfig()
	c.N = 30
	c.K = 3
	c.Rounds = 3
	c.Seeds = []uint64{1}
	c.LifespanMaxRounds = 120
	return TournamentConfig{
		Base:      c,
		Protocols: []ProtocolID{QLEC, KMeans, TDEEC},
		Lambdas:   []float64{4},
		Ns:        []int{30},
	}
}

// runTiny runs tc over the homogeneous tier alone, with the audited
// energy-budget leg when budget is set.
func runTiny(tc TournamentConfig, budget bool) (*TournamentResult, error) {
	return runTournament(context.Background(), tc, []TierScenario{{Name: "homogeneous"}}, budget)
}

func TestTournamentRanksEveryProtocol(t *testing.T) {
	res, err := runTiny(tinyTournament(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Standings) != 3 {
		t.Fatalf("standings has %d rows, want 3", len(res.Standings))
	}
	seen := map[ProtocolID]bool{}
	for i, s := range res.Standings {
		if s.Rank != i+1 {
			t.Errorf("standing %d has rank %d", i, s.Rank)
		}
		if s.Score <= 0 {
			t.Errorf("%s score %v not positive", s.Protocol, s.Score)
		}
		if s.PDR.Mean < 0 || s.PDR.Mean > 1 {
			t.Errorf("%s PDR mean %v outside [0,1]", s.Protocol, s.PDR.Mean)
		}
		if s.FND.Mean <= 0 || s.HND.Mean <= 0 {
			t.Errorf("%s FND/HND %v/%v not positive", s.Protocol, s.FND.Mean, s.HND.Mean)
		}
		if s.HND.Mean < s.FND.Mean {
			t.Errorf("%s HND %v before FND %v", s.Protocol, s.HND.Mean, s.FND.Mean)
		}
		if s.Budget == nil {
			t.Errorf("%s has no energy budget", s.Protocol)
		} else if s.Budget.TotalJ <= 0 {
			t.Errorf("%s audited energy %v not positive", s.Protocol, s.Budget.TotalJ)
		}
		seen[s.Protocol] = true
	}
	if len(seen) != 3 {
		t.Fatalf("standings missing protocols: %v", seen)
	}
	if len(res.Cells) != 3 { // 3 protocols × 1 λ × 1 N × 1 tier × 1 seed
		t.Fatalf("cells has %d rows, want 3", len(res.Cells))
	}
}

func TestTournamentDeterministic(t *testing.T) {
	tc := tinyTournament()
	a, err := runTiny(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTiny(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical tournaments produced different results")
	}
	// And identical under the serial reference schedule.
	tc.Base.Workers = 1
	c, err := runTiny(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("parallel tournament differs from serial reference")
	}
}

func TestTournamentDefaultsToCompetitorField(t *testing.T) {
	tc := tinyTournament()
	tc.Protocols = nil
	tc.Base.LifespanMaxRounds = 40
	res, err := runTiny(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	want := CompetitorProtocols()
	if len(res.Standings) != len(want) {
		t.Fatalf("standings has %d rows, want %d", len(res.Standings), len(want))
	}
	for _, s := range res.Standings {
		for _, ab := range []ProtocolID{DEECNearest, QLECNoFloor, QLECNoRR} {
			if s.Protocol == ab {
				t.Errorf("ablation %s in default field", ab)
			}
		}
	}
}

func TestTournamentUnknownProtocol(t *testing.T) {
	tc := tinyTournament()
	tc.Protocols = []ProtocolID{"nope"}
	if _, err := runTiny(tc, true); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestTournamentCanonicalizesAliases(t *testing.T) {
	tc := tinyTournament()
	tc.Protocols = []ProtocolID{"kmeans"}
	res, err := runTiny(tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Standings[0].Protocol != KMeans {
		t.Fatalf("alias not canonicalized: %q", res.Standings[0].Protocol)
	}
}

func TestFormatTournament(t *testing.T) {
	res, err := runTiny(tinyTournament(), true)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTournament(res)
	for _, want := range []string{"rank", "protocol", "J/node", "FND", "HND", "auditJ"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	for _, s := range res.Standings {
		if !strings.Contains(out, string(s.Protocol)) {
			t.Errorf("report missing row for %s", s.Protocol)
		}
	}
}
