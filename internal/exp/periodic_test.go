package exp

import (
	"math/rand"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/objects"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// objectFixture builds an object-backed heterogeneous ring (Gnutella
// capacities, 5 VSs per node, uniform object loads in [0, 2)) with its
// K=2 tree, plus the store and the RNG that drives object drift.
func objectFixture(t *testing.T, seed int64, nodes, objCount int) (*chord.Ring, *ktree.Tree, *objects.Store, *rand.Rand) {
	t.Helper()
	eng := sim.NewEngine(seed)
	ring := chord.NewRing(eng, chord.Config{})
	profile := workload.GnutellaProfile()
	for i := 0; i < nodes; i++ {
		ring.AddNode(-1, profile.Sample(eng.Rand()), 5)
	}
	store := objects.NewStore(ring)
	rng := rand.New(rand.NewSource(seed))
	if err := store.Populate(rng, objCount, uniformObjectLoad); err != nil {
		t.Fatal(err)
	}
	tree, err := ktree.New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Build(); err != nil {
		t.Fatal(err)
	}
	return ring, tree, store, rng
}

func uniformObjectLoad(r *rand.Rand) float64 { return r.Float64() * 2 }

func TestPeriodicRounds(t *testing.T) {
	balanced := protocol.Config{Core: core.Config{Epsilon: 0.05}}
	cases := []struct {
		name     string
		seed     int64
		objects  int
		cfg      protocol.Config
		interval sim.Time
		rounds   int
		drift    int // objects replaced before every round
		wantErr  bool
		check    func(t *testing.T, hist []RoundRecord)
	}{
		{name: "zero interval", seed: 1, objects: 500, cfg: balanced, interval: 0, rounds: 3, wantErr: true},
		{name: "negative interval", seed: 1, objects: 500, cfg: balanced, interval: -5, rounds: 3, wantErr: true},
		{name: "no rounds", seed: 1, objects: 500, cfg: balanced, interval: 10, rounds: 0, wantErr: true},
		{
			name: "invalid protocol config", seed: 1, objects: 500, interval: 10, rounds: 3, wantErr: true,
			cfg: protocol.Config{Core: core.Config{Epsilon: -1}},
		},
		{
			// A frozen workload: the first round does the heavy lifting,
			// no round worsens the imbalance, and later rounds find
			// little left to move.
			name: "static workload converges", seed: 2, objects: 20000, cfg: balanced,
			interval: 5000, rounds: 5,
			check: func(t *testing.T, hist []RoundRecord) {
				for i, rec := range hist {
					if rec.Err != nil {
						t.Fatalf("round %d failed: %v", i, rec.Err)
					}
					if rec.GiniAfter > rec.GiniBefore+1e-9 {
						t.Errorf("round %d worsened imbalance: %v -> %v", i, rec.GiniBefore, rec.GiniAfter)
					}
				}
				first, last := hist[0].Result.MovedLoad, hist[len(hist)-1].Result.MovedLoad
				if first == 0 || last > first/4 {
					t.Errorf("no convergence: first round moved %v, last %v", first, last)
				}
			},
		},
		{
			// 10% of the objects churn between rounds; every round must
			// succeed, and the imbalance must stay contained: pre-round
			// Gini never climbs back near the initial level (capacity
			// granularity keeps a floor of ~0.3, so the signal is the
			// distance from the unbalanced state, not 0), and rounds
			// leave the system more balanced than they found it.
			name: "drift containment", seed: 3, objects: 20000, cfg: balanced,
			interval: 5000, rounds: 12, drift: 2000,
			check: func(t *testing.T, hist []RoundRecord) {
				var before, after float64
				for i, rec := range hist {
					if rec.Err != nil {
						t.Fatalf("round %d failed: %v", i, rec.Err)
					}
					if want := sim.Time(i+1) * 5000; rec.StartedAt != want {
						t.Errorf("round %d started at %d, want %d", i, rec.StartedAt, want)
					}
					before += rec.GiniBefore
					after += rec.GiniAfter
				}
				if hist[0].GiniBefore < 0.6 {
					t.Fatalf("fixture too tame: initial Gini %v", hist[0].GiniBefore)
				}
				for i := 2; i < len(hist); i++ {
					if hist[i].GiniBefore > hist[0].GiniBefore*0.7 {
						t.Errorf("round %d saw pre-Gini %v, drift not contained (initial %v)",
							i, hist[i].GiniBefore, hist[0].GiniBefore)
					}
					if hist[i].Result.MovedLoad > hist[0].Result.MovedLoad {
						t.Errorf("round %d moved more than the initial round", i)
					}
				}
				if after >= before {
					t.Errorf("rounds do not contain drift: mean Gini %v -> %v",
						before/float64(len(hist)), after/float64(len(hist)))
				}
			},
		},
		{
			// With interval 1 the second tick fires while the first round
			// is still running: that tick is recorded as failed, with no
			// result, and later ticks carry on.
			name: "tick during round skips", seed: 5, objects: 5000, cfg: balanced,
			interval: 1, rounds: 50,
			check: func(t *testing.T, hist []RoundRecord) {
				completed, skipped := 0, 0
				for _, rec := range hist {
					switch {
					case rec.Err == nil:
						completed++
					case rec.Result == nil:
						skipped++
					}
				}
				if completed == 0 || skipped == 0 {
					t.Fatalf("%d completed, %d skipped; want both", completed, skipped)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring, tree, store, rng := objectFixture(t, tc.seed, 96, tc.objects)
			hooked := 0
			hist, err := PeriodicRounds(ring, tree, tc.cfg, tc.interval, tc.rounds, func() {
				hooked++
				if err := store.Drift(rng, tc.drift, uniformObjectLoad); err != nil {
					t.Error(err)
				}
			})
			if tc.wantErr {
				if err == nil {
					t.Fatal("accepted an invalid configuration")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Exactly `rounds` ticks, and nothing left queued that could
			// run another.
			if len(hist) != tc.rounds || hooked != tc.rounds {
				t.Fatalf("%d records and %d hook calls, want %d", len(hist), hooked, tc.rounds)
			}
			if p := ring.Engine().Pending(); p != 0 {
				t.Fatalf("%d events still pending after the drain", p)
			}
			tc.check(t, hist)
			if err := store.CheckLoads(1e-6); err != nil {
				t.Fatal(err)
			}
			ring.CheckInvariants()
			tree.CheckInvariants()
		})
	}
}
