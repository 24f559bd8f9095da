package exp

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/ktree"
	"p2plb/internal/livenet"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
)

// RoundRecord is one tick of PeriodicRounds.
type RoundRecord struct {
	StartedAt sim.Time
	// GiniBefore/GiniAfter are the Gini coefficients of per-node unit
	// load of the living membership around the round.
	GiniBefore, GiniAfter float64
	Result                *protocol.Result // nil if the round failed
	Err                   error
}

// PeriodicRounds runs the balancer the way a long-lived deployment
// would, on the ring's engine: every interval of virtual time it runs
// before (the hook drift and churn experiments use to mutate the
// workload or membership), repairs the tree — membership and hosting
// may have changed since the last round — and starts one message-level
// protocol round. After `rounds` ticks it drains the engine and returns
// one record per tick, in tick order. A tick that lands while the
// previous round is still in flight skips its round and is recorded as
// failed.
func PeriodicRounds(ring *chord.Ring, tree *ktree.Tree, cfg protocol.Config, interval sim.Time, rounds int, before func()) ([]RoundRecord, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("exp: non-positive round interval %d", interval)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("exp: need at least one round, got %d", rounds)
	}
	runner, err := protocol.NewRunner(ring, tree, cfg)
	if err != nil {
		return nil, err
	}
	eng := ring.Engine()
	hist := make([]RoundRecord, rounds)
	tick := 0
	var stop func()
	stop = eng.Every(interval, func() {
		rec := &hist[tick]
		if tick++; tick == rounds {
			stop()
		}
		before()
		rec.StartedAt = eng.Now()
		if _, err := tree.Repair(); err != nil {
			rec.Err = err
			return
		}
		rec.GiniBefore = livenet.UnitLoadGini(ring)
		if err := runner.StartRound(func(res *protocol.Result, err error) {
			rec.Result, rec.Err, rec.GiniAfter = res, err, livenet.UnitLoadGini(ring)
		}); err != nil {
			rec.Err = err
		}
	})
	eng.Run()
	return hist, nil
}
