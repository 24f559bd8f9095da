package main

import (
	"fmt"
	"time"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/livenet"
	"p2plb/internal/metrics"
	"p2plb/internal/protocol"
	"p2plb/internal/serve"
	"p2plb/internal/workload"
)

// Serving parameters: the BENCH_serve balancer-on variant.
const (
	serveUtilization = 0.25
	serveWork        = 1000
	servePutFraction = 0.1
	serveRoundEvery  = 500
)

// timedLoads wraps the server's observed-rate LoadSource so the
// benchmark can time each Refresh the balancer makes.
type timedLoads struct {
	src   core.LoadSource
	tr    *tracer
	calls int
	secs  float64
}

func (l *timedLoads) Refresh(ring *chord.Ring) {
	h := l.tr.begin("serve.refresh")
	t := time.Now()
	l.src.Refresh(ring)
	l.secs += time.Since(t).Seconds()
	l.tr.end(h)
	l.calls++
}

func (l *timedLoads) Name() string { return l.src.Name() }

// roundTap wraps the protocol runner the server drives, so the
// benchmark sees every round's Result and can give each round a span.
// Rounds run inside the engine, interleaved with request events, so a
// round span overlaps the serve.run span instead of nesting in it.
type roundTap struct {
	r     *protocol.Runner
	tr    *tracer
	stats roundStats
}

func (t *roundTap) StartRound(done func(*protocol.Result, error)) error {
	h := t.tr.async("protocol.round")
	return t.r.StartRound(func(res *protocol.Result, err error) {
		t.tr.finish(h)
		if err == nil {
			t.stats.add(res)
		}
		done(res, err)
	})
}

// serveSystem is one served ring, ready to run.
type serveSystem struct {
	fx    *fixture
	srv   *serve.Server
	loads *timedLoads
	tap   *roundTap
	spec  workload.PlanSpec
	newS  float64
}

// setupServe builds the ring and the server over it as
// exp.ServeSweep's balancer-on variant does.
func setupServe(e *env, reg *metrics.Registry) (*serveSystem, error) {
	n := e.size.serveNodes
	fx, err := buildFixture(e.seed, n, reg, e.tr)
	if err != nil {
		return nil, err
	}
	// The server owns the loads: it primes them from the plan.
	var ideal float64
	for _, vs := range fx.ring.VServers() {
		vs.Load = 0
	}
	for _, node := range fx.ring.Nodes() {
		ideal += node.Capacity / serveWork
	}
	s := &serveSystem{fx: fx, spec: workload.PlanSpec{
		Seed:        e.seed,
		Requests:    e.size.serveRequests,
		Objects:     e.size.serveObjects,
		Rate:        serveUtilization * ideal,
		PutFraction: servePutFraction,
		Origins:     n,
	}}
	s.newS, err = timed(func() error {
		return e.tr.do("serve.new", func() error {
			var err error
			s.srv, err = serve.New(fx.eng, fx.ring, serve.Config{Plan: s.spec, Work: serveWork, Warmup: e.size.serveWarmup})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	s.loads = &timedLoads{src: s.srv, tr: e.tr}
	runner, err := protocol.NewRunner(fx.ring, fx.tree, protocol.Config{Core: core.Config{Epsilon: epsilon, Loads: s.loads}})
	if err != nil {
		return nil, err
	}
	s.tap = &roundTap{r: runner, tr: e.tr}
	s.srv.UseBalancer(s.tap, serveRoundEvery)
	return s, nil
}

// runServe is the serve-zipf workload: an open loop in simulated time.
// One operation is one planned request; op_s is the host time of the
// whole served plan divided by its length.
func runServe(e *env) (*outcome, error) {
	o := &outcome{base: "planned requests"}
	var reg *metrics.Registry
	if e.tr != nil {
		reg = metrics.NewRegistry()
	}
	first := true
	iter := func() error {
		e.tr.newTrace()
		var s *serveSystem
		setupS, err := timedSetup(func() error {
			var err error
			s, err = setupServe(e, reg)
			return err
		})
		if err != nil {
			return err
		}
		o.setup = append(o.setup, setupS)
		settle()
		eng := s.fx.eng
		ev0, msg0 := eng.Executed(), tallyMsgs(eng)
		var am allocMeter
		am.start()
		var rep *serve.Report
		runS, err := timed(func() error {
			return e.tr.do("serve.run", func() error {
				var err error
				rep, err = s.srv.Run()
				return err
			})
		})
		am.stop()
		if err != nil {
			return fmt.Errorf("serving the plan: %w", err)
		}
		o.markHeap(s)
		planned := s.spec.Requests
		o.ops = append(o.ops, runS/float64(planned))
		o.wall += runS
		o.attempted += planned
		o.failed += planned - rep.Requests
		o.check(rep.Requests == planned, "%d of %d planned requests completed", rep.Requests, planned)
		o.check(rep.Measured >= e.size.minMeasured, "only %d post-warmup requests measured, need %d", rep.Measured, e.size.minMeasured)
		o.agree(fmt.Sprintf("%s/%d rounds/%d transfers", rep.Checksum, rep.Rounds, rep.Transfers))
		if !first {
			return nil
		}
		first = false
		am.record(o, planned)
		events := float64(eng.Executed() - ev0)
		o.note("req_per_s", "1/s", float64(planned)/runS)
		o.note("latency_p50_ticks", "ticks", rep.Total.P50)
		o.note("latency_p999_ticks", "ticks", fmt.Sprintf("%g (%d measured requests)", rep.Total.P999, rep.Measured))
		o.note("checksum", "", rep.Checksum)
		o.set("serve.req_per_s", float64(planned)/runS)
		o.set("serve.latency_p50_ticks", rep.Total.P50)
		o.set("serve.latency_p999_ticks", rep.Total.P999)
		o.set("serve.measured", float64(rep.Measured))
		o.set("serve.new_objects_per_s", rate(float64(s.spec.Objects), s.newS))
		o.set("serve.refresh_vs_per_s", rate(float64(s.loads.calls*s.fx.ring.NumVServers()), s.loads.secs))
		o.set("serve.refresh_calls", float64(s.loads.calls))
		s.fx.layerBuild(o)
		o.set("ktree.repair_changes_per_s", 0)
		o.set("ktree.repair_changes", 0)
		o.set("sim.events", events)
		o.set("sim.events_per_req", events/float64(planned))
		o.set("sim.events_per_s", events/runS)
		o.set("sim.queue_depth_mean", queueDepth(reg))
		o.set("chord.hops_per_lookup", rep.MeanHops)
		o.set("chord.cache_hit_frac", float64(rep.CacheHits)/float64(max(rep.CacheHits+rep.CacheMisses, 1)))
		o.set("chord.cache_stale", float64(rep.CacheStale))
		o.set("core.gini_after", livenet.UnitLoadGini(s.fx.ring))
		s.tap.stats.layer(o, tallyMsgs(eng).minus(msg0))
		return replayLayers(e, o, s)
	}
	extra := func() (float64, error) {
		return timedSetup(func() error { _, err := setupServe(e, nil); return err })
	}
	if err := loop(e, o, iter, extra); err != nil {
		return nil, err
	}
	return o, nil
}

// replayLayers times the workload and chord layers on their own: the
// plan generator over the same spec, then the first plan requests
// replayed one at a time through Ring.Lookup (uncached routing) on the
// post-run ring, from the request's origin to its object's key.
func replayLayers(e *env, o *outcome, s *serveSystem) error {
	var reqs []workload.Request
	planS, err := timed(func() error {
		return e.tr.do("workload.plan", func() error {
			p, err := workload.NewRequestPlan(s.spec)
			if err != nil {
				return err
			}
			for {
				r, ok := p.Next()
				if !ok {
					return nil
				}
				if len(reqs) < e.size.replay {
					reqs = append(reqs, r)
				}
			}
		})
	})
	if err != nil {
		return err
	}
	o.set("workload.plan_req_per_s", rate(float64(s.spec.Requests), planS))

	// serve.New draws the object keys from the engine right after the
	// fixture is built; an identically seeded fixture reproduces them.
	twin, err := buildFixture(e.seed, e.size.serveNodes, nil, nil)
	if err != nil {
		return err
	}
	keys := make([]ident.ID, s.spec.Objects)
	for i := range keys {
		keys[i] = ident.ID(twin.eng.Rand().Uint32())
	}
	want := make(map[ident.ID]int, len(keys))
	for _, k := range keys {
		want[k]++
	}
	for _, ob := range s.srv.Store().Objects() {
		want[ob.Key]--
	}
	same := len(s.srv.Store().Objects()) == len(keys)
	for _, c := range want {
		same = same && c == 0
	}
	o.check(same, "replay keys differ from the served object keys")

	ring, eng := s.fx.ring, s.fx.eng
	nodes := ring.Nodes()
	var hops int
	lookupS, err := timed(func() error {
		return e.tr.do("chord.replay", func() error {
			for _, r := range reqs {
				e.tr.newTrace()
				h := e.tr.begin("chord.lookup")
				ring.Lookup(nodes[r.Origin%len(nodes)], keys[r.Object], func(res chord.LookupResult) { hops += res.Hops })
				eng.Run()
				e.tr.end(h)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	o.set("chord.lookups_per_s", rate(float64(len(reqs)), lookupS))
	o.note("replay_hops_per_lookup", "count", float64(hops)/float64(max(len(reqs), 1)))
	return nil
}
