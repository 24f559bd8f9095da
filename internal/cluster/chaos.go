package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"p2plb/internal/faults"
	"p2plb/internal/metrics"
	"p2plb/internal/stats"
)

// ChaosConfig parameterizes one chaos experiment: a live cluster under
// drifting load with SIGKILLs injected from a seed-derived KillPlan,
// measured against a kill-free baseline run of the same seed.
type ChaosConfig struct {
	Bin     string // lbd binary
	DataDir string
	Seed    int64
	Procs   int
	VSPer   int
	Rounds  int
	Kills   int
	// DriftSigma is the per-round load drift (default 0.15).
	DriftSigma float64
	// RoundTimeout bounds one round's settle (default 30s).
	RoundTimeout time.Duration
	// HoldPerRound converts a KillEvent's RestartAfter rounds into a
	// wall-clock restart hold (default 600ms).
	HoldPerRound time.Duration
}

func (c *ChaosConfig) withDefaults() {
	if c.DriftSigma == 0 {
		c.DriftSigma = 0.15
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if c.HoldPerRound <= 0 {
		c.HoldPerRound = 600 * time.Millisecond
	}
	if c.VSPer <= 0 {
		c.VSPer = 5
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
}

// RoundResult is one settled round's audit.
type RoundResult struct {
	Round    uint64  `json:"round"`
	Gini     float64 `json:"gini"`
	Kills    int     `json:"kills"`
	SettleMS int64   `json:"settle_ms"`
}

// ChaosReport is the experiment's outcome, shaped for lbbench's
// results field.
type ChaosReport struct {
	Procs        int                `json:"procs"`
	Rounds       []RoundResult      `json:"rounds"`
	BaselineGini float64            `json:"baseline_gini"`
	FinalGini    float64            `json:"final_gini"`
	InitialGini  float64            `json:"initial_gini"`
	Kills        int                `json:"kills"`
	Restarts     int                `json:"restarts"`
	Reissues     int                `json:"reissues"`
	Plan         []faults.KillEvent `json:"plan"`
	Metrics      *metrics.Snapshot  `json:"-"`
}

// ReserveAddrs grabs n distinct localhost addresses by binding and
// releasing ephemeral ports. Every port stays bound until all n are
// chosen: a port released at once can come straight back from the
// next bind, and two daemons handed the same address cannot both
// listen.
func ReserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func unitGini(sts []Status) float64 {
	units := make([]float64, len(sts))
	for i, st := range sts {
		units[i] = st.Total / st.Capacity
	}
	return stats.Gini(units)
}

// RunChaos runs the full experiment: a kill-free baseline to establish
// the no-fault Gini band, then the chaos run with the seed-derived kill
// schedule, checking conservation after every settled round. It errors
// on any conservation violation or a round that never settles.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg.withDefaults()
	var plan *faults.KillPlan
	if cfg.Kills > 0 {
		var err error
		plan, err = faults.NewKillPlan(cfg.Seed, faults.KillPlanConfig{
			Rounds: cfg.Rounds,
			Procs:  cfg.Procs,
			Kills:  cfg.Kills,
			// The root is protected: it is the supervisor's control
			// target for round triggers. Interior and leaf ranks all stay
			// killable, which still exercises every recovery path (subtree
			// expiry, escrow resumption, re-issued triggers).
			Protect: []int{0},
		})
		if err != nil {
			return nil, err
		}
	}
	baseline, err := runChaosOnce(cfg, "baseline", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: baseline run: %w", err)
	}
	report, err := runChaosOnce(cfg, "chaos", plan)
	if err != nil {
		return nil, err
	}
	report.BaselineGini = baseline.FinalGini
	if plan != nil {
		report.Plan = plan.Events
	}
	return report, nil
}

func runChaosOnce(cfg ChaosConfig, name string, plan *faults.KillPlan) (*ChaosReport, error) {
	dir := filepath.Join(cfg.DataDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := ReserveAddrs(cfg.Procs)
	if err != nil {
		return nil, err
	}
	httpAddrs, err := ReserveAddrs(cfg.Procs)
	if err != nil {
		return nil, err
	}
	spec := &Spec{
		ClusterID:  fmt.Sprintf("chaos-%d-%s", cfg.Seed, name),
		Seed:       cfg.Seed,
		Procs:      cfg.Procs,
		VSPerNode:  cfg.VSPer,
		Addrs:      addrs,
		HTTPAddrs:  httpAddrs,
		DriftSigma: cfg.DriftSigma,
	}
	sup, err := NewSupervisor(spec, cfg.Bin, dir)
	if err != nil {
		return nil, err
	}
	if err := sup.Start(); err != nil {
		return nil, err
	}
	defer sup.Stop()

	killsAt := make(map[int][]faults.KillEvent)
	if plan != nil {
		for _, ev := range plan.Events {
			killsAt[ev.Round] = append(killsAt[ev.Round], ev)
		}
	}

	report := &ChaosReport{Procs: cfg.Procs}
	var sts []Status
	for r := uint64(1); r <= uint64(cfg.Rounds); r++ {
		begin := time.Now()
		if err := sup.TriggerRound(r); err != nil {
			return nil, err
		}
		evs := killsAt[int(r)]
		if len(evs) > 0 {
			// Let the round reach mid-flight before pulling the trigger.
			time.Sleep(200 * time.Millisecond)
			for _, ev := range evs {
				hold := time.Duration(ev.RestartAfter) * cfg.HoldPerRound
				if err := sup.Kill(ev.Victim, hold); err != nil {
					return nil, fmt.Errorf("cluster: round %d kill rank %d: %w", r, ev.Victim, err)
				}
			}
		}
		sts, err = sup.Settle(r, cfg.RoundTimeout)
		if err != nil {
			return nil, err
		}
		if err := sup.CheckConservation(sts); err != nil {
			return nil, fmt.Errorf("cluster: after round %d: %w", r, err)
		}
		g := unitGini(sts)
		if r == 1 {
			report.InitialGini = g
		}
		report.Rounds = append(report.Rounds, RoundResult{
			Round:    r,
			Gini:     g,
			Kills:    len(evs),
			SettleMS: time.Since(begin).Milliseconds(),
		})
	}
	report.FinalGini = unitGini(sts)
	snap := sup.MergedMetrics()
	report.Metrics = &snap
	report.Kills, report.Restarts, report.Reissues = sup.Counters()
	return report, nil
}
