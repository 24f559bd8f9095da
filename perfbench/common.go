package main

import (
	"fmt"
	"strings"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/metrics"
	"p2plb/internal/protocol"
	"p2plb/internal/sim"
	"p2plb/internal/topology"
	"p2plb/internal/workload"
)

// sizes fixes the shape of every workload. full is what the benchmark
// measures; toySizes keeps the tests fast.
type sizes struct {
	serveNodes    int
	serveRequests int
	serveObjects  int
	serveWarmup   sim.Time
	minMeasured   int // post-warmup requests serve-zipf must measure
	replay        int // plan requests replayed through Ring.Lookup
	rebalanceVS   int
	lossyVS       int
	lossyRounds   int
	clusterRounds int
}

var full = sizes{
	serveNodes:    4096,
	serveRequests: 500_000,
	serveObjects:  100_000,
	serveWarmup:   4000,
	minMeasured:   10_000,
	replay:        50_000,
	rebalanceVS:   256_000,
	lossyVS:       64_000,
	lossyRounds:   4,
	clusterRounds: 4,
}

var toySizes = sizes{
	serveNodes:    256,
	serveRequests: 20_000,
	serveObjects:  2_000,
	serveWarmup:   200,
	minMeasured:   1_000,
	replay:        500,
	rebalanceVS:   4_000,
	lossyVS:       2_000,
	lossyRounds:   2,
	clusterRounds: 4,
}

// vsPerNode is the paper's five virtual servers per node, everywhere.
const vsPerNode = 5

// epsilon is the paper's balancing slack.
const epsilon = 0.05

// units is every metric perfbench measures, with its unit. BENCHMARK.json
// must declare exactly these names under these units.
var units = map[string]string{
	// End to end.
	"setup_s":      "s",
	"op_s":         "s",
	"live_heap_mb": "MB",

	"workload.plan_req_per_s": "1/s",

	"chord.build_vs_per_s":  "1/s",
	"chord.lookups_per_s":   "1/s",
	"chord.hops_per_lookup": "count",
	"chord.cache_hit_frac":  "ratio",
	"chord.cache_stale":     "count",

	"sim.events":           "count",
	"sim.events_per_req":   "count",
	"sim.events_per_s":     "1/s",
	"sim.queue_depth_mean": "count",

	"serve.new_objects_per_s":  "1/s",
	"serve.refresh_vs_per_s":   "1/s",
	"serve.refresh_calls":      "count",
	"serve.req_per_s":          "1/s",
	"serve.latency_p50_ticks":  "ticks",
	"serve.latency_p999_ticks": "ticks",
	"serve.measured":           "count",

	"ktree.build_nodes_per_s":    "1/s",
	"ktree.nodes":                "count",
	"ktree.height":               "count",
	"ktree.repair_changes_per_s": "1/s",
	"ktree.repair_changes":       "count",

	"core.transfers":         "count",
	"core.unassigned_offers": "count",
	"core.heavy_after":       "count",
	"core.gini_after":        "gini",

	"protocol.rounds":            "count",
	"protocol.msgs_per_round":    "count",
	"protocol.msgs.lbi":          "count",
	"protocol.msgs.vsa":          "count",
	"protocol.msgs.vst":          "count",
	"protocol.phase_vticks.lbi":  "ticks",
	"protocol.phase_vticks.vsa":  "ticks",
	"protocol.phase_vticks.vst":  "ticks",
	"protocol.round_vticks":      "ticks",
	"protocol.retries_per_msg":   "ratio",
	"protocol.timeouts":          "count",
	"protocol.aborted":           "count",
	"faults.dropped":             "count",
	"livenet.transfers":          "count",
	"livenet.transfers_per_s":    "1/s",
	"cluster.spawn_procs_per_s":  "1/s",
	"cluster.clean_rounds_per_s": "1/s",
	"cluster.kills":              "count",
	"cluster.restarts":           "count",
	"cluster.reissues":           "count",
	"cluster.handoffs":           "count",
	"cluster.applies":            "count",
	"cluster.escrows":            "count",
	"cluster.aborts":             "count",
	"wire.sent":                  "count",
	"wire.acked":                 "count",
	"wire.retries":               "count",
	"wire.dups":                  "count",
	"wire.failed":                "count",
	"wire.status_calls_per_s":    "1/s",
	"go.allocs_per_op":           "count",
	"go.bytes_per_op":            "B",
	"go.peak_rss_mb":             "MB",
	"trace.overhead_s":           "s",
	"trace.spans":                "count",
	"trace.self_frac.workload":   "ratio",
	"trace.self_frac.chord":      "ratio",
	"trace.self_frac.sim":        "ratio",
	"trace.self_frac.serve":      "ratio",
	"trace.self_frac.ktree":      "ratio",
	"trace.self_frac.core":       "ratio",
	"trace.self_frac.protocol":   "ratio",
	"trace.self_frac.livenet":    "ratio",
	"trace.self_frac.cluster":    "ratio",
	"trace.self_frac.wire":       "ratio",
}

// fixture is one seeded system: the ring, its loads and its KT tree,
// built exactly as exp.Build builds the no-underlay setup (same RNG
// draws in the same order), so a fixture equals exp.Build's instance
// at the same seed and size.
type fixture struct {
	eng    *sim.Engine
	ring   *chord.Ring
	tree   *ktree.Tree
	chordS float64 // ring population
	ktreeS float64 // tree build
}

// buildFixture builds a fixture of nodes nodes; reg, when non-nil, is
// attached to the engine before anything runs on it.
func buildFixture(seed int64, nodes int, reg *metrics.Registry, tr *tracer) (*fixture, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("fixture needs at least one node, got %d", nodes)
	}
	f := &fixture{eng: sim.NewEngine(seed)}
	f.eng.SetMetrics(reg)
	f.ring = chord.NewRing(f.eng, chord.Config{})
	profile := workload.GnutellaProfile()
	var err error
	f.chordS, err = timed(func() error {
		return tr.do("chord.build", func() error {
			f.ring.BulkAddNodes(nodes, vsPerNode,
				func(int) topology.NodeID { return -1 },
				func(int) float64 { return profile.Sample(f.eng.Rand()) })
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	mu := float64(nodes) * 100
	loads := &core.SampledLoads{Model: workload.Gaussian{Mu: mu, Sigma: mu / 200}, Rng: f.eng.Rand()}
	_ = tr.do("core.loads", func() error { loads.Refresh(f.ring); return nil }) // cannot fail
	f.ktreeS, err = timed(func() error {
		return tr.do("ktree.build", func() error {
			t, err := ktree.New(f.ring, 2)
			if err != nil {
				return err
			}
			f.tree = t
			return t.Build()
		})
	})
	if err != nil {
		return nil, fmt.Errorf("building the KT tree: %w", err)
	}
	return f, nil
}

// layerBuild records the chord and ktree set-up rates and tree shape.
func (f *fixture) layerBuild(o *outcome) {
	o.set("chord.build_vs_per_s", rate(float64(f.ring.NumVServers()), f.chordS))
	o.set("ktree.build_nodes_per_s", rate(float64(f.tree.NumNodes()), f.ktreeS))
	o.set("ktree.nodes", float64(f.tree.NumNodes()))
	o.set("ktree.height", float64(f.tree.Height()))
}

// msgTally counts the protocol's messages on an engine by phase: the
// LBI converge-cast and dissemination (lbi-*), the VSA sweep and
// pairing notices (vsa-*), and the two-phase VST handoff (vst-*), each
// with its acks.
type msgTally struct{ lbi, vsa, vst int64 }

func tallyMsgs(eng *sim.Engine) msgTally {
	var t msgTally
	for _, k := range eng.MessageKinds() {
		n := eng.MessageCount(k)
		switch {
		case strings.HasPrefix(k, "protocol.lbi-"):
			t.lbi += n
		case strings.HasPrefix(k, "protocol.vsa-"):
			t.vsa += n
		case strings.HasPrefix(k, "protocol.vst-"):
			t.vst += n
		}
	}
	return t
}

func (t msgTally) total() int64 { return t.lbi + t.vsa + t.vst }

func (t msgTally) minus(u msgTally) msgTally {
	return msgTally{t.lbi - u.lbi, t.vsa - u.vsa, t.vst - u.vst}
}

// roundStats sums the protocol.Results of completed message-level
// rounds.
type roundStats struct {
	rounds, transfers, unassigned int
	heavyAfter                    int // of the last round
	timeouts, aborted, retries    int
	assignedPairs                 int // transfers plus aborted handoffs
	// Virtual time, from round start, at which the LBI dissemination,
	// the VSA sweep and the last transfer completed. Pairing starts at
	// the lowest rendezvous points before the sweep reaches the root,
	// so the phases overlap and only their completion times are well
	// defined.
	lbiT, vsaT, completeT float64
}

func (s *roundStats) add(res *protocol.Result) {
	s.rounds++
	s.transfers += len(res.Assignments)
	s.unassigned += res.UnassignedOffers
	s.heavyAfter = res.HeavyAfter
	s.timeouts += res.TimedOutChildren
	s.aborted += res.AbortedTransfers
	s.retries += res.Retries
	s.assignedPairs += len(res.Assignments) + res.AbortedTransfers
	s.lbiT += float64(res.TimeLBIDisseminate)
	s.vsaT += float64(res.TimeVSAComplete)
	s.completeT += float64(res.TimeVSTComplete) // VST ends the round
}

// layer records the protocol and core per-layer metrics of the rounds,
// with msgs the protocol messages they sent.
func (s *roundStats) layer(o *outcome, msgs msgTally) {
	n := float64(max(s.rounds, 1))
	o.set("protocol.rounds", float64(s.rounds))
	o.set("protocol.msgs_per_round", float64(msgs.total())/n)
	o.set("protocol.msgs.lbi", float64(msgs.lbi))
	o.set("protocol.msgs.vsa", float64(msgs.vsa))
	o.set("protocol.msgs.vst", float64(msgs.vst))
	o.set("protocol.phase_vticks.lbi", s.lbiT/n)
	o.set("protocol.phase_vticks.vsa", s.vsaT/n)
	o.set("protocol.phase_vticks.vst", s.completeT/n)
	o.set("protocol.round_vticks", s.completeT/n)
	o.set("protocol.retries_per_msg", float64(s.retries)/float64(max(msgs.total(), 1)))
	o.set("protocol.timeouts", float64(s.timeouts))
	o.set("protocol.aborted", float64(s.aborted))
	o.set("core.transfers", float64(s.transfers))
	o.set("core.unassigned_offers", float64(s.unassigned))
	o.set("core.heavy_after", float64(s.heavyAfter))
}

// queueDepth is the mean sim event-queue depth the registry observed.
func queueDepth(reg *metrics.Registry) float64 {
	if reg == nil {
		return 0
	}
	return reg.Snapshot().Histograms["sim.queue.depth"].Mean()
}
