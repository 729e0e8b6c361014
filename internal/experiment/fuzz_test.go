package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"qlec/internal/audit"
	"qlec/internal/energy"
	"qlec/internal/sim"
)

// fuzzPacketBudget caps a fuzzed run's expected packet count,
// N·rounds·RoundDuration/λ. It only skips λ below ≈0.04 s at N=40 and
// 10 rounds (25 packets/s per node, 25× the paper's heaviest load),
// where a run is a long simulation rather than a new one.
const fuzzPacketBudget = 2e5

// oddField returns the sim float that odd%7 selects for a non-finite
// value, or nil (0): ContentionGamma, ShadowSigma, the mobility speeds
// and pause, DeathLine.
func oddField(c *sim.Config, odd uint8) *float64 {
	return [...]*float64{nil, &c.ContentionGamma, &c.ShadowSigma, &c.MobilitySpeedMin,
		&c.MobilitySpeedMax, &c.MobilityPause, (*float64)(&c.DeathLine)}[odd%7]
}

// FuzzRunOne runs small randomized simulations (N ≤ 40, ≤ 10 rounds,
// any λ, k, registered protocol, battery and seed, lifespan on or off,
// shadowing, contention and mobility toggled, and one sim float
// optionally forced to NaN or ±Inf) and checks the invariants the code
// already defines on every one of them:
//
//   - the audit recorder finds no energy-conservation violation and no
//     transmission by a dead node;
//   - metrics.Result.Validate accepts the result;
//   - recording does not change the result: the audited run's JSON
//     equals the unaudited run's (qlecd rebuilds audit artifacts by
//     replaying unrecorded jobs, and relies on this);
//   - two audited runs give byte-identical artifacts.
//
// Configurations that Validate rejects must make RunOne fail, not panic.
func FuzzRunOne(f *testing.F) {
	f.Add(uint8(20), uint8(4), 4.0, uint8(3), uint8(0), uint8(99), uint64(1), false, false, false, false, uint8(0))
	f.Add(uint8(40), uint8(10), 1.0, uint8(6), uint8(1), uint8(0), uint64(7), true, true, true, true, uint8(0))
	f.Fuzz(func(t *testing.T, n, rounds uint8, lambda float64, k, proto, battery uint8, seed uint64,
		lifespan, shadow, contend, mobile bool, odd uint8) {
		ids := AllProtocols()
		id := ids[int(proto)%len(ids)]
		cfg := PaperConfig()
		cfg.N = 1 + int(n)%40
		cfg.Rounds = 1 + int(rounds)%10
		cfg.K = int(k)
		cfg.Lambdas = []float64{lambda}
		cfg.Seeds = []uint64{seed}
		cfg.InitialEnergy = 0.05 * energy.Joules(1+int(battery))
		cfg.LifespanDeathLine = cfg.InitialEnergy / 2
		cfg.LifespanMaxRounds = cfg.Rounds
		if shadow {
			cfg.Sim.ShadowSigma = 0.9
		}
		if contend {
			cfg.Sim.ContentionGamma = 0.1
		}
		if mobile {
			cfg.Sim.MobilitySpeedMin, cfg.Sim.MobilitySpeedMax, cfg.Sim.MobilityPause = 1, 3, 30
		}
		if f := oddField(&cfg.Sim, odd); f != nil {
			*f = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[odd/7%3]
		}
		ctx := context.Background()
		if err := cfg.Validate(); err != nil {
			if _, err := cfg.RunOne(ctx, id, lambda, seed, lifespan); err == nil {
				t.Fatalf("RunOne accepted a config Validate rejects (%v)", cfg.Validate())
			}
			return
		}
		if float64(cfg.N*cfg.Rounds)*cfg.Sim.RoundDuration/lambda > fuzzPacketBudget {
			t.Skipf("λ=%v at N=%d over %d rounds exceeds the packet budget", lambda, cfg.N, cfg.Rounds)
		}

		plain, err := cfg.RunOne(ctx, id, lambda, seed, lifespan)
		if id == LEACH && cfg.N == 1 {
			// LEACH's lottery needs k/N < 1: RunOne must reject a
			// one-node network with the validation error.
			if want := cfg.ValidateProtocol(id); want == nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("LEACH at N=1: RunOne error %v, want the validation error %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := plain.Validate(); err != nil {
			t.Fatalf("%s: result fails Validate: %v", id, err)
		}
		want, err := json.Marshal(plain)
		if err != nil {
			t.Fatalf("%s: marshal result: %v", id, err)
		}
		var artifacts [2][]byte
		for i := range artifacts {
			rec := audit.New(audit.Options{})
			res, err := cfg.RunOneWith(ctx, id, lambda, seed, lifespan, Hooks{Audit: rec})
			if err != nil {
				t.Fatalf("%s audited: %v", id, err)
			}
			if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: audited result differs from the unaudited one (%v)\n got %s\nwant %s", id, err, got, want)
			}
			art := rec.Artifact()
			if art.Report.ViolationCount != 0 {
				t.Fatalf("%s: %d conservation violations: %+v", id, art.Report.ViolationCount, art.Report.Violations)
			}
			if c := art.Report.AnomalyCounts[audit.AnomalyDeadNodeTx]; c != 0 {
				t.Fatalf("%s: %d dead-node transmissions", id, c)
			}
			var buf bytes.Buffer
			if err := audit.WriteArtifact(&buf, art); err != nil {
				t.Fatal(err)
			}
			artifacts[i] = buf.Bytes()
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Fatalf("%s: two audited runs gave different artifacts", id)
		}
	})
}
