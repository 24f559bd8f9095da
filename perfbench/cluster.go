package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"p2plb/internal/cluster"
	"p2plb/internal/faults"
	"p2plb/internal/stats"
)

// Cluster parameters: the chaos harness's defaults.
const (
	clusterDrift     = 0.15
	clusterTimeout   = 30 * time.Second
	clusterHold      = 600 * time.Millisecond // restart hold per RestartAfter round
	clusterMidFlight = 200 * time.Millisecond // trigger-to-kill delay
	statusProbes     = 10                     // StatusOf calls per rank in the wire probe
)

// clusterProcs is one lbd daemon per CPU, between 2 and 8.
func clusterProcs() int { return min(max(runtime.NumCPU(), 2), 8) }

// liveCluster is one running set of lbd daemons.
type liveCluster struct {
	sup *cluster.Supervisor
	dir string
}

func (c *liveCluster) stop() {
	c.sup.Stop()
	os.RemoveAll(c.dir)
}

// startCluster spawns procs daemons and returns once every rank
// answers a status call, with the seconds that took.
func startCluster(e *env, procs int) (*liveCluster, float64, error) {
	if e.lbd == "" {
		return nil, 0, errors.New("cluster-kill needs the lbd binary (-lbd)")
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(e.out, "cluster-")
	if err != nil {
		return nil, 0, err
	}
	addrs, err := cluster.ReserveAddrs(procs)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	httpAddrs, err := cluster.ReserveAddrs(procs)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	spec := &cluster.Spec{
		ClusterID:  fmt.Sprintf("perfbench-%d", e.seed),
		Seed:       e.seed,
		Procs:      procs,
		VSPerNode:  vsPerNode,
		Addrs:      addrs,
		HTTPAddrs:  httpAddrs,
		DriftSigma: clusterDrift,
	}
	sup, err := cluster.NewSupervisor(spec, e.lbd, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	c := &liveCluster{sup: sup, dir: dir}
	spawnS, err := timedSetup(func() error {
		return e.tr.do("cluster.spawn", func() error {
			if err := sup.Start(); err != nil {
				return err
			}
			for r := 0; r < procs; r++ {
				if _, err := sup.StatusOf(r, clusterTimeout); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("starting the cluster: %w", err)
	}
	return c, spawnS, nil
}

// runCluster is the cluster-kill workload: lbd daemons over real TCP,
// one SIGKILL from a seeded kill plan. The supervisor is a closed loop:
// it triggers a round only after the previous one settled. One
// operation is the kill round, timed from its trigger to its settle.
func runCluster(e *env) (*outcome, error) {
	o := &outcome{base: "cluster rounds"}
	procs := clusterProcs()
	plan, err := faults.NewKillPlan(e.seed, faults.KillPlanConfig{
		Rounds: e.size.clusterRounds,
		Procs:  procs,
		Kills:  1,
		// Rounds are triggered through rank 0, as in the chaos harness.
		Protect: []int{0},
	})
	if err != nil {
		return nil, err
	}
	killsAt := make(map[uint64][]faults.KillEvent)
	for _, ev := range plan.Events {
		killsAt[uint64(ev.Round)] = append(killsAt[uint64(ev.Round)], ev)
	}
	first := true
	iter := func() error {
		c, spawnS, err := startCluster(e, procs)
		if err != nil {
			return err
		}
		defer c.stop()
		o.setup = append(o.setup, spawnS)
		sup := c.sup
		var am allocMeter
		am.start()
		var clean []float64
		var sts []cluster.Status
		for r := uint64(1); r <= uint64(e.size.clusterRounds); r++ {
			e.tr.newTrace()
			h := e.tr.begin("cluster.round")
			begin := time.Now()
			err := e.tr.do("cluster.trigger", func() error { return sup.TriggerRound(r) })
			if err == nil && len(killsAt[r]) > 0 {
				time.Sleep(clusterMidFlight)
				for _, ev := range killsAt[r] {
					if err = e.tr.do("cluster.kill", func() error {
						return sup.Kill(ev.Victim, time.Duration(ev.RestartAfter)*clusterHold)
					}); err != nil {
						break
					}
				}
			}
			if err == nil {
				err = e.tr.do("cluster.settle", func() error {
					var err error
					sts, err = sup.Settle(r, clusterTimeout)
					return err
				})
			}
			settle := time.Since(begin).Seconds()
			e.tr.end(h)
			o.attempted++
			if err != nil {
				o.failed++
				o.check(false, "round %d did not settle: %v", r, err)
				return nil
			}
			err = e.tr.do("cluster.conservation", func() error { return sup.CheckConservation(sts) })
			o.check(err == nil, "after round %d: %v", r, err)
			if len(killsAt[r]) > 0 {
				o.ops = append(o.ops, settle)
				o.wall += settle
			} else {
				clean = append(clean, settle)
			}
		}
		am.stop()
		o.markHeap(sup)
		o.agree(fmt.Sprint(plan.Events))
		if !first {
			return nil
		}
		first = false
		kills, restarts, reissues := sup.Counters()
		snap := sup.MergedMetrics()
		handoffs := snap.Counters["cluster.handoffs"]
		am.record(o, int(handoffs))
		units := make([]float64, len(sts))
		for i, st := range sts {
			units[i] = st.Total / st.Capacity
		}
		gini := stats.Gini(units)
		var probeS float64
		probeS, err = timed(func() error {
			for i := 0; i < statusProbes*procs; i++ {
				if err := e.tr.do("wire.status", func() error {
					_, err := sup.StatusOf(i%procs, clusterTimeout)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("status probe: %w", err)
		}
		recovery := 0.0
		if len(o.ops) > 0 {
			recovery = o.ops[0]
		}
		o.note("recovery_s", "s", recovery)
		o.note("clean_settle_s", "s", median(clean))
		o.note("gini_after", "gini", gini)
		o.note("procs", "count", procs)
		o.note("kill_plan", "", fmt.Sprint(plan.Events))
		o.set("cluster.spawn_procs_per_s", rate(float64(procs), spawnS))
		o.set("cluster.clean_rounds_per_s", rate(1, median(clean)))
		o.set("cluster.kills", float64(kills))
		o.set("cluster.restarts", float64(restarts))
		o.set("cluster.reissues", float64(reissues))
		for _, k := range []string{"cluster.handoffs", "cluster.applies", "cluster.escrows", "cluster.aborts",
			"wire.sent", "wire.acked", "wire.retries", "wire.dups", "wire.failed"} {
			o.set(k, float64(snap.Counters[k]))
		}
		o.set("wire.status_calls_per_s", rate(float64(statusProbes*procs), probeS))
		o.set("core.gini_after", gini)
		return nil
	}
	extra := func() (float64, error) {
		c, s, err := startCluster(e, procs)
		if err != nil {
			return 0, err
		}
		c.stop()
		return s, nil
	}
	if err := loop(e, o, iter, extra); err != nil {
		return nil, err
	}
	return o, nil
}
