package main

import (
	"errors"
	"fmt"

	"p2plb/internal/core"
	"p2plb/internal/faults"
	"p2plb/internal/ktree"
	"p2plb/internal/livenet"
	"p2plb/internal/metrics"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/workload"
)

// runRebalance is the rebalance workload: on three identically seeded
// fixtures it runs a closed-form core.Balancer round, a message-level
// protocol round on the sim engine and a livenet round, then churns 1%
// of the nodes of the closed-form fixture and repairs its KT tree. One
// operation is that whole pass; op_s sums the timed steps except the
// livenet round, whose time swings by ±15% with goroutine scheduling on
// two cores (the fixture builds are set-up).
func runRebalance(e *env) (*outcome, error) {
	o := &outcome{base: "balancing rounds"}
	nodes := e.size.rebalanceVS / vsPerNode
	var reg *metrics.Registry
	if e.tr != nil {
		reg = metrics.NewRegistry()
	}
	first := true
	build := func(reg *metrics.Registry) (*fixture, error) {
		var fx *fixture
		s, err := timedSetup(func() error {
			var err error
			fx, err = buildFixture(e.seed, nodes, reg, e.tr)
			return err
		})
		o.setup = append(o.setup, s)
		return fx, err
	}
	iter := func() error {
		var st rebalanceStep
		// Closed form, then churn and repair on the same fixture.
		fx, err := build(nil)
		if err != nil {
			return err
		}
		e.tr.newTrace()
		settle()
		var am allocMeter
		am.start()
		closed, err := st.closedForm(e, o, fx)
		if err != nil {
			return err
		}
		repairChanges, err := st.churnRepair(e, o, fx)
		if err != nil {
			return err
		}
		am.stop()
		o.markHeap(fx)
		closedN, unassigned, heavyAfter := len(closed.Assignments), closed.UnassignedOffers, closed.HeavyAfter
		// Drop each fixture before building the next: two 256k-VS
		// fixtures alive at once would double the peak heap.
		closed, fx = nil, nil

		// Message level, on the sim engine.
		fx, err = build(reg)
		if err != nil {
			return err
		}
		e.tr.newTrace()
		settle()
		am.start()
		proto, stats, msgs, events, err := st.protocolRound(e, o, fx)
		if err != nil {
			return err
		}
		am.stop()
		o.markHeap(fx)
		gini := livenet.UnitLoadGini(fx.ring)
		if first {
			fx.layerBuild(o)
			o.set("sim.queue_depth_mean", queueDepth(reg))
		}
		fx = nil

		// Live goroutine executor.
		fx, err = build(nil)
		if err != nil {
			return err
		}
		e.tr.newTrace()
		settle()
		am.start()
		live, err := st.liveRound(e, o, fx)
		if err != nil {
			return err
		}
		am.stop()
		o.markHeap(fx)
		o.check(live.HeavyAfter == stats.heavyAfter, "livenet leaves %d heavy nodes, protocol %d", live.HeavyAfter, stats.heavyAfter)
		if err := sameTransferSet(proto, live.Assignments); err != nil {
			o.check(false, "executors diverged: %v", err)
		}
		transfers := closedN + len(proto) + len(live.Assignments)
		op := st.roundS + st.churnS + st.repairS + st.simS
		o.ops = append(o.ops, op)
		o.wall += op
		o.attempted += 3
		o.agree(fmt.Sprintf("closed %d/%d heavy, protocol %d at %g vticks, livenet %d, repair %d changes",
			closedN, heavyAfter, len(proto), stats.completeT, len(live.Assignments), repairChanges))
		if !first {
			return nil
		}
		first = false
		am.record(o, transfers)
		o.note("round_s", "s", st.roundS)
		o.note("sim_round_s", "s", st.simS)
		o.note("live_round_s", "s", st.liveS)
		o.note("churn_s", "s", st.churnS)
		o.note("repair_s", "s", st.repairS)
		o.note("round_vticks", "ticks", stats.completeT)
		o.note("gini_after", "gini", gini)
		o.note("heavy_after", "count", heavyAfter)
		stats.layer(o, msgs)
		o.set("core.transfers", float64(closedN))
		o.set("core.unassigned_offers", float64(unassigned))
		o.set("core.heavy_after", float64(heavyAfter))
		o.set("core.gini_after", gini)
		o.set("ktree.repair_changes_per_s", rate(float64(repairChanges), st.repairS))
		o.set("ktree.repair_changes", float64(repairChanges))
		o.set("sim.events", float64(events))
		o.set("sim.events_per_s", rate(float64(events), st.simS))
		o.set("sim.events_per_req", 0)
		o.set("livenet.transfers", float64(len(live.Assignments)))
		o.set("livenet.transfers_per_s", rate(float64(len(live.Assignments)), st.liveS))
		return nil
	}
	extra := func() (float64, error) {
		return timedSetup(func() error { _, err := buildFixture(e.seed, nodes, nil, nil); return err })
	}
	if err := loop(e, o, iter, extra); err != nil {
		return nil, err
	}
	return o, nil
}

// rebalanceStep holds one rebalance pass's step timings.
type rebalanceStep struct {
	roundS, churnS, repairS, simS, liveS float64
}

func (st *rebalanceStep) closedForm(e *env, o *outcome, fx *fixture) (*core.Result, error) {
	bal, err := core.NewBalancer(fx.ring, fx.tree, core.Config{Epsilon: epsilon})
	if err != nil {
		return nil, err
	}
	base := fx.ring.SnapshotConservation()
	var res *core.Result
	st.roundS, err = timed(func() error {
		return e.tr.do("core.round", func() error {
			var err error
			res, err = bal.RunRound()
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("closed-form round: %w", err)
	}
	o.check(fx.ring.CheckConservation(base) == nil, "closed-form round broke conservation: %v", fx.ring.CheckConservation(base))
	return res, nil
}

// churnRepair removes the first 1% of the live nodes, adds as many
// fresh ones, then repairs the KT tree incrementally; the churn and the
// repair are timed apart.
func (st *rebalanceStep) churnRepair(e *env, o *outcome, fx *fixture) (int, error) {
	ring := fx.ring
	n := max(len(ring.Nodes())/100, 1)
	alive := ring.AliveNodes()
	profile := workload.GnutellaProfile()
	var changes int
	var err error
	st.churnS, _ = timed(func() error {
		return e.tr.do("chord.churn", func() error {
			for i := 0; i < n && i < len(alive); i++ {
				ring.RemoveNode(alive[i])
			}
			for i := 0; i < n; i++ {
				ring.AddNode(-1, profile.Sample(fx.eng.Rand()), vsPerNode)
			}
			return nil
		})
	})
	st.repairS, err = timed(func() error {
		return e.tr.do("ktree.repair", func() error {
			var err error
			changes, err = fx.tree.Repair()
			return err
		})
	})
	if err != nil {
		return 0, fmt.Errorf("repairing after churn: %w", err)
	}
	o.check(invariants(fx.tree) == nil, "KT tree invariants after repair: %v", invariants(fx.tree))
	return changes, nil
}

// invariants runs Tree.CheckInvariants, which panics on a violation,
// and returns the violation as an error.
func invariants(t *ktree.Tree) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	t.CheckInvariants()
	return nil
}

// transferKey identifies a transfer by value, so transfer sets compare
// across independently built rings.
type transferKey struct {
	vs       uint32
	from, to int
}

func (st *rebalanceStep) protocolRound(e *env, o *outcome, fx *fixture) (map[transferKey]float64, roundStats, msgTally, uint64, error) {
	var stats roundStats
	r, err := protocol.NewRunner(fx.ring, fx.tree, protocol.Config{Core: core.Config{Epsilon: epsilon}})
	if err != nil {
		return nil, stats, msgTally{}, 0, err
	}
	base := fx.ring.SnapshotConservation()
	ev0, msg0 := fx.eng.Executed(), tallyMsgs(fx.eng)
	var res *protocol.Result
	st.simS, err = timed(func() error {
		return e.tr.do("protocol.round", func() error {
			var err error
			res, err = runMessageRound(e, r, fx.eng)
			return err
		})
	})
	if err != nil {
		return nil, stats, msgTally{}, 0, fmt.Errorf("protocol round: %w", err)
	}
	stats.add(res)
	o.check(fx.ring.CheckConservation(base) == nil, "protocol round broke conservation: %v", fx.ring.CheckConservation(base))
	set := make(map[transferKey]float64, len(res.Assignments))
	for _, a := range res.Assignments {
		set[transferKey{uint32(a.VS.ID), a.From.Index, a.To.Index}] = a.Load
	}
	return set, stats, tallyMsgs(fx.eng).minus(msg0), fx.eng.Executed() - ev0, nil
}

// runMessageRound starts one protocol round and runs the engine until
// it completes.
func runMessageRound(e *env, r *protocol.Runner, eng *sim.Engine) (*protocol.Result, error) {
	var out *protocol.Result
	var outErr error
	if err := e.tr.do("protocol.start_round", func() error {
		return r.StartRound(func(res *protocol.Result, err error) { out, outErr = res, err })
	}); err != nil {
		return nil, err
	}
	_ = e.tr.do("sim.run", func() error { eng.Run(); return nil }) // cannot fail
	if outErr == nil && out == nil {
		return nil, errors.New("the engine drained before the round completed")
	}
	return out, outErr
}

func (st *rebalanceStep) liveRound(e *env, o *outcome, fx *fixture) (*livenet.Result, error) {
	base := fx.ring.SnapshotConservation()
	var res *livenet.Result
	var err error
	st.liveS, err = timed(func() error {
		return e.tr.do("livenet.round", func() error {
			var err error
			res, err = livenet.RunRound(fx.ring, fx.tree, core.Config{Epsilon: epsilon})
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("livenet round: %w", err)
	}
	o.check(fx.ring.CheckConservation(base) == nil, "livenet round broke conservation: %v", fx.ring.CheckConservation(base))
	return res, nil
}

// sameTransferSet checks that livenet moved exactly the virtual servers
// the protocol round moved, between the same nodes, with the same loads.
func sameTransferSet(proto map[transferKey]float64, live []core.Pair) error {
	if len(proto) != len(live) {
		return fmt.Errorf("protocol moved %d VSs, livenet %d", len(proto), len(live))
	}
	for _, p := range live {
		k := transferKey{uint32(p.VS.ID), p.From.Index, p.To.Index}
		load, ok := proto[k]
		if !ok {
			return fmt.Errorf("livenet moved %v from %d to %d, protocol did not", p.VS.ID, k.from, k.to)
		}
		if load != p.Load {
			return fmt.Errorf("VS %v: protocol moved load %v, livenet %v", p.VS.ID, load, p.Load)
		}
	}
	return nil
}

// Lossy-round parameters: the exp fault-row set-up at 10% drop.
const (
	lossyDrop         = 0.10
	lossyChildTimeout = 500
)

// runLossy is the rebalance-lossy workload: consecutive message-level
// rounds over a network that drops 10% of messages, with a KT repair
// after any failed round. One operation is one round.
func runLossy(e *env) (*outcome, error) {
	o := &outcome{base: "assigned transfer pairs"}
	nodes := e.size.lossyVS / vsPerNode
	var reg *metrics.Registry
	if e.tr != nil {
		reg = metrics.NewRegistry()
	}
	first := true
	iter := func() error {
		e.tr.newTrace()
		var fx *fixture
		var in *faults.Injector
		var r *protocol.Runner
		setupS, err := timedSetup(func() error {
			var err error
			fx, in, r, err = setupLossy(e, nodes, reg)
			return err
		})
		if err != nil {
			return err
		}
		o.setup = append(o.setup, setupS)
		base := fx.ring.SnapshotConservation()
		ev0, msg0 := fx.eng.Executed(), tallyMsgs(fx.eng)
		settle()
		var am allocMeter
		am.start()
		var stats roundStats
		var failedRounds, repairChanges int
		var repairS, roundsS float64
		for i := 0; i < e.size.lossyRounds; i++ {
			e.tr.newTrace()
			var res *protocol.Result
			var roundErr error
			s, _ := timed(func() error {
				return e.tr.do("protocol.round", func() error {
					res, roundErr = runMessageRound(e, r, fx.eng)
					return nil
				})
			})
			if roundErr != nil {
				failedRounds++
				rs, err := timed(func() error {
					return e.tr.do("ktree.repair", func() error {
						c, err := fx.tree.Repair()
						repairChanges += c
						return err
					})
				})
				repairS += rs
				if err != nil {
					return fmt.Errorf("repair after failed round %d: %w", i, err)
				}
			} else {
				stats.add(res)
			}
			o.ops = append(o.ops, s)
			o.wall += s
			roundsS += s
			err := fx.ring.CheckConservation(base)
			o.check(err == nil, "round %d broke conservation: %v", i, err)
		}
		am.stop()
		o.markHeap(fx)
		o.attempted += stats.assignedPairs
		o.failed += stats.aborted
		gini := livenet.UnitLoadGini(fx.ring)
		o.agree(fmt.Sprintf("%d transfers, %d aborted, %d failed rounds, %d retries, gini %.12g",
			stats.transfers, stats.aborted, failedRounds, stats.retries, gini))
		if !first {
			return nil
		}
		first = false
		events := fx.eng.Executed() - ev0
		am.record(o, stats.assignedPairs)
		o.note("sim_round_s", "s", roundsS/float64(e.size.lossyRounds))
		o.note("round_vticks", "ticks", stats.completeT/float64(max(stats.rounds, 1)))
		o.note("gini_after", "gini", gini)
		o.note("failed_rounds", "count", fmt.Sprintf("%d of %d", failedRounds, e.size.lossyRounds))
		fx.layerBuild(o)
		stats.layer(o, tallyMsgs(fx.eng).minus(msg0))
		o.set("core.gini_after", gini)
		o.set("ktree.repair_changes", float64(repairChanges))
		o.set("ktree.repair_changes_per_s", rate(float64(repairChanges), repairS))
		o.set("sim.events", float64(events))
		o.set("sim.events_per_s", rate(float64(events), roundsS))
		o.set("sim.events_per_req", 0)
		o.set("sim.queue_depth_mean", queueDepth(reg))
		o.set("faults.dropped", float64(in.Dropped()))
		return nil
	}
	extra := func() (float64, error) {
		return timedSetup(func() error { _, _, _, err := setupLossy(e, nodes, nil); return err })
	}
	if err := loop(e, o, iter, extra); err != nil {
		return nil, err
	}
	return o, nil
}

func setupLossy(e *env, nodes int, reg *metrics.Registry) (*fixture, *faults.Injector, *protocol.Runner, error) {
	fx, err := buildFixture(e.seed, nodes, reg, e.tr)
	if err != nil {
		return nil, nil, nil, err
	}
	in, err := faults.New(e.seed, faults.Plan{Drop: lossyDrop})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := in.Attach(fx.ring); err != nil {
		return nil, nil, nil, err
	}
	r, err := protocol.NewRunner(fx.ring, fx.tree, protocol.Config{
		Core:         core.Config{Epsilon: epsilon},
		ChildTimeout: lossyChildTimeout,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return fx, in, r, nil
}
