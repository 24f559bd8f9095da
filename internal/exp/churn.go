package exp

import (
	"fmt"

	"p2plb/internal/core"
	"p2plb/internal/par"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
)

// ChurnRow is one churn-rate operating point of the robustness
// experiment: `Churn` nodes crash and `Churn` fresh nodes join before
// every balancing round.
type ChurnRow struct {
	Churn int // node replacements per round
	// Rounds completed and how many of them failed outright.
	Rounds, Failed int
	// TimedOutChildren sums the per-round epochs that proceeded on
	// partial data, and AbortedTransfers the pairings lost to dead
	// endpoints — the protocol's damage report.
	TimedOutChildren int
	AbortedTransfers int
	// MeanHeavyBefore/MeanHeavyAfter average the per-round censuses
	// over the steady-state rounds (the first round excluded).
	MeanHeavyBefore float64
	MeanHeavyAfter  float64
	// MovedPerRound is the steady-state mean moved load.
	MovedPerRound float64
}

// ChurnSensitivity measures how the balancer behaves as membership
// churn grows — the robustness question the paper leaves to future work
// (§5.1) — on the default no-underlay setup.
func ChurnSensitivity(seed int64, nodes int, rates []int, rounds int) ([]ChurnRow, error) {
	s := DefaultSetup(seed)
	s.Nodes = nodes
	return ChurnSensitivitySetup(s, rates, rounds)
}

// ChurnSensitivitySetup runs the churn sweep on an arbitrary setup,
// including topology-backed ones (joiners then take real stub underlay
// positions). For each rate it runs `rounds` message-level rounds on a
// fresh system where `rate` random nodes crash and `rate` join right
// before every round; crashes are visible to the round itself only
// through the tree's stale state (repair runs before each round, so the
// stress is on loads and membership, with the in-round crash path
// covered separately by the protocol tests). Rates run in parallel —
// each builds its own engine from the setup seed, so rows are
// independent of scheduling.
func ChurnSensitivitySetup(s Setup, rates []int, rounds int) ([]ChurnRow, error) {
	if rounds < 2 {
		return nil, fmt.Errorf("exp: need at least two rounds")
	}
	for _, rate := range rates {
		if rate < 0 || rate >= s.Nodes/2 {
			return nil, fmt.Errorf("exp: churn rate %d out of range for %d nodes", rate, s.Nodes)
		}
	}
	return par.MapErr(rates, 0, func(rate int) (ChurnRow, error) {
		return churnRow(s, rate, rounds)
	})
}

// churnRow runs one churn rate on a fresh instance.
func churnRow(s Setup, rate, rounds int) (ChurnRow, error) {
	inst, err := Build(s)
	if err != nil {
		return ChurnRow{}, err
	}
	// Build fills defaults (sentinels resolved, profile set) into the
	// instance's Setup copy; read the resolved values from there.
	profile := inst.Setup.Profile
	vsPerNode := inst.Setup.VSPerNode
	// Joiners on a topology-backed instance must occupy real underlay
	// positions — the latency model rejects the -1 sentinel.
	var stubs []topology.NodeID
	if inst.Graph != nil {
		stubs = inst.Graph.StubNodes()
	}
	// Rounds on a topology-backed instance pay real underlay latencies
	// on every message, so they need a much wider beat to finish before
	// the next one starts (overlap would surface as spurious "round
	// already active" failures, not as churn behaviour). Anything above
	// the protocol's hard round deadline — 8 epoch windows of
	// ChildTimeout·(height+1), with ChildTimeout defaulting to 5000 —
	// guarantees a tick never lands mid-round.
	interval := sim.Time(5000)
	if inst.Graph != nil {
		interval = sim.Time(9 * 5000 * (inst.Tree.Height() + 2))
	}
	cfg := protocol.Config{Core: core.Config{Epsilon: inst.Setup.Epsilon}}
	hist, err := PeriodicRounds(inst.Ring, inst.Tree, cfg, interval, rounds, func() {
		// One membership snapshot per round with swap-remove
		// sampling: uniform over the round's initial membership and
		// O(rate) instead of re-materializing AliveNodes() (O(n))
		// after every crash.
		alive := inst.Ring.AliveNodes()
		for i := 0; i < rate && len(alive) > 0; i++ {
			j := inst.Engine.Rand().Intn(len(alive))
			inst.Ring.RemoveNode(alive[j])
			alive[j] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		for i := 0; i < rate; i++ {
			u := topology.NodeID(-1)
			if len(stubs) > 0 {
				u = stubs[inst.Engine.Rand().Intn(len(stubs))]
			}
			// Fresh nodes arrive with freshly loaded regions: the
			// ring redistributed the dead nodes' loads to ring
			// successors; joiners start with whatever falls into
			// their new regions (zero until objects/loads move),
			// which is exactly the imbalance the next round fixes.
			inst.Ring.AddNode(u, profile.Sample(inst.Engine.Rand()), vsPerNode)
		}
	})
	if err != nil {
		return ChurnRow{}, err
	}

	row := ChurnRow{Churn: rate}
	steady := 0
	for i, rec := range hist {
		row.Rounds++
		if rec.Err != nil {
			row.Failed++
			continue
		}
		row.TimedOutChildren += rec.Result.TimedOutChildren
		row.AbortedTransfers += rec.Result.AbortedTransfers
		if i == 0 {
			continue
		}
		steady++
		row.MeanHeavyBefore += float64(rec.Result.HeavyBefore)
		row.MeanHeavyAfter += float64(rec.Result.HeavyAfter)
		row.MovedPerRound += rec.Result.MovedLoad
	}
	if steady > 0 {
		row.MeanHeavyBefore /= float64(steady)
		row.MeanHeavyAfter /= float64(steady)
		row.MovedPerRound /= float64(steady)
	}
	return row, nil
}
