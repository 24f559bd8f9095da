package exp

import (
	"testing"

	"p2plb/internal/core"
	"p2plb/internal/topology"
)

// smallSetup keeps unit tests fast; full-scale runs live in the
// benchmarks and cmd/lbsim.
func smallSetup(seed int64) Setup {
	s := DefaultSetup(seed)
	s.Nodes = 256
	return s
}

func smallTopo(seed int64) topology.Params {
	return topology.Params{
		TransitDomains:        3,
		TransitNodesPerDomain: 2,
		StubsPerTransitNode:   3,
		StubDomainSizeMean:    40,
		TransitEdgeProb:       0.6,
		TransitDomainEdgeProb: 0.5,
		StubEdgeProb:          0.42,
		Seed:                  seed,
	}
}

func TestBuildDefaults(t *testing.T) {
	inst, err := Build(smallSetup(1))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Ring.NumVServers() != 256*5 {
		t.Fatalf("VS count %d", inst.Ring.NumVServers())
	}
	if inst.Tree.Root() == nil {
		t.Fatal("tree not built")
	}
	if inst.Graph != nil || inst.Mapper != nil {
		t.Fatal("no topology requested but one was built")
	}
	// Loads must be drawn.
	var total float64
	for _, vs := range inst.Ring.VServers() {
		total += vs.Load
	}
	if total <= 0 {
		t.Fatal("no loads assigned")
	}
}

func TestBuildValidation(t *testing.T) {
	s := smallSetup(1)
	s.Nodes = 0
	if _, err := Build(s); err == nil {
		t.Error("zero nodes should fail")
	}
	s = smallSetup(1)
	s.Mode = core.ProximityAware
	if _, err := Build(s); err == nil {
		t.Error("aware mode without topology should fail")
	}
	s = smallSetup(1)
	tp := smallTopo(1)
	s.Topology = &tp
	s.Nodes = 100000
	if _, err := Build(s); err == nil {
		t.Error("more nodes than stub nodes should fail")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallSetup(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallSetup(3))
	if err != nil {
		t.Fatal(err)
	}
	va, vb := a.Ring.VServers(), b.Ring.VServers()
	if len(va) != len(vb) {
		t.Fatal("VS counts differ")
	}
	for i := range va {
		if va[i].ID != vb[i].ID || va[i].Load != vb[i].Load {
			t.Fatal("same seed produced different rings")
		}
	}
}

func TestFig4ShapeSmall(t *testing.T) {
	ba, err := beforeAfter(smallSetup(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(ba.UnitBefore) != 256 || len(ba.UnitAfter) != 256 {
		t.Fatalf("unit load lengths %d/%d", len(ba.UnitBefore), len(ba.UnitAfter))
	}
	// The paper's headline numbers: ~75% heavy before, none after.
	if p := ba.PercentHeavyBefore(); p < 0.5 || p > 0.95 {
		t.Errorf("percent heavy before = %.2f, want ~0.75", p)
	}
	if ba.Result.HeavyAfter != 0 {
		t.Errorf("heavy after = %d, want 0", ba.Result.HeavyAfter)
	}
}

func TestLoadByCapacitySmall(t *testing.T) {
	for _, pareto := range []bool{false, true} {
		s := smallSetup(5)
		s.Pareto = pareto
		inst, err := Build(s)
		if err != nil {
			t.Fatal(err)
		}
		before := inst.Balancer.LoadByCapacityClass()
		if _, err := inst.Balancer.RunRound(); err != nil {
			t.Fatal(err)
		}
		after := inst.Balancer.LoadByCapacityClass()
		// After balancing, unit load must become far more uniform across
		// classes: compare the unit-load ratio of the largest to the
		// smallest class before and after.
		classes := after.Classes()
		if len(classes) < 3 {
			t.Skip("profile under-sampled at this scale")
		}
		lo, hi := classes[0], classes[len(classes)-2] // skip rarely-sampled top class
		ratioBefore := (before.Mean(lo) / lo) / (before.Mean(hi) / hi)
		ratioAfter := (after.Mean(lo) / lo) / (after.Mean(hi) / hi)
		if ratioAfter > ratioBefore/5 {
			t.Errorf("pareto=%v: unit-load skew only improved %vx -> %vx",
				pareto, ratioBefore, ratioAfter)
		}
	}
}

func TestMovedLoadDistributionSmall(t *testing.T) {
	dist, err := MovedLoadDistribution(smallTopo, 2, 100, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist.Aware.Total() <= 0 || dist.Ignorant.Total() <= 0 {
		t.Fatal("no load moved")
	}
	if dist.HeavyResidualAware != 0 || dist.HeavyResidualIgnorant != 0 {
		t.Errorf("residual heavy nodes: %d aware, %d ignorant",
			dist.HeavyResidualAware, dist.HeavyResidualIgnorant)
	}
	aware, ignorant := dist.MeanHops()
	if aware >= ignorant {
		t.Errorf("aware mean hops %.2f >= ignorant %.2f", aware, ignorant)
	}
	// Aware CDF must dominate at short distances.
	if dist.Aware.FractionWithin(2) <= dist.Ignorant.FractionWithin(2) {
		t.Error("aware does not dominate within 2 hops")
	}
}

func TestMovedLoadDistributionErrors(t *testing.T) {
	if _, err := MovedLoadDistribution(smallTopo, 0, 1, 128, nil); err == nil {
		t.Error("zero graphs should fail")
	}
}

func TestVSATimesScaling(t *testing.T) {
	rows, err := VSATimes([]int{2, 8}, []int{64, 256}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byKey := map[[2]int]PhaseTimes{}
	for _, r := range rows {
		byKey[[2]int{r.K, r.Nodes}] = r
		if r.LBIUp <= 0 || r.VSADone < r.LBIDown {
			t.Errorf("implausible times: %+v", r)
		}
	}
	// Higher K gives a shallower tree.
	if byKey[[2]int{8, 256}].TreeHeight >= byKey[[2]int{2, 256}].TreeHeight {
		t.Error("K=8 tree not shallower than K=2")
	}
	// 4x nodes must not cost 4x VSA time (logarithmic growth).
	if byKey[[2]int{2, 256}].VSADone > 3*byKey[[2]int{2, 64}].VSADone {
		t.Errorf("VSA time grew superlogarithmically: %d -> %d",
			byKey[[2]int{2, 64}].VSADone, byKey[[2]int{2, 256}].VSADone)
	}
}

func TestFig4Driver(t *testing.T) {
	// The public Fig4 entry point at reduced scale via DefaultSetup is
	// too slow for unit tests, so drive the same path through
	// beforeAfter (Fig4 is a thin wrapper) — plus sanity on the
	// percentage helper.
	ba, err := beforeAfter(smallSetup(20))
	if err != nil {
		t.Fatal(err)
	}
	p := ba.PercentHeavyBefore()
	if p <= 0 || p >= 1 {
		t.Fatalf("PercentHeavyBefore = %v", p)
	}
	empty := &BeforeAfter{Result: &core.Result{}}
	if empty.PercentHeavyBefore() != 0 {
		t.Fatal("empty census should report 0")
	}
}

func TestLoadByCapacityDriver(t *testing.T) {
	// Exercise the exported LoadByCapacity through a full (small) run by
	// temporarily standing in for the default scale via VSATimes-style
	// setup; the full-scale path is covered by cmd/lbsim and benches.
	rows, res, err := LoadByCapacity(21, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.HeavyAfter != 0 {
		t.Errorf("heavy after = %d", res.HeavyAfter)
	}
	if len(rows) < 4 {
		t.Fatalf("only %d capacity rows", len(rows))
	}
	var totalNodes int
	for _, r := range rows {
		totalNodes += r.Nodes
		if r.MeanAfter < 0 || r.UnitAfter < 0 {
			t.Fatalf("negative row values: %+v", r)
		}
	}
	if totalNodes != 4096 {
		t.Fatalf("rows cover %d nodes, want 4096", totalNodes)
	}
	// Unit load after must be far more uniform than before across the
	// mid classes.
	var r10, r1000 CapacityClassRow
	for _, r := range rows {
		if r.Capacity == 10 {
			r10 = r
		}
		if r.Capacity == 1000 {
			r1000 = r
		}
	}
	if r1000.UnitBefore/r10.UnitBefore > 0.2 {
		t.Error("fixture not skewed before balancing")
	}
	if ratio := r1000.UnitAfter / r10.UnitAfter; ratio < 0.5 || ratio > 4 {
		t.Errorf("unit-load ratio after = %v, want near 1", ratio)
	}
}

func TestVSATimesErrors(t *testing.T) {
	if _, err := VSATimes([]int{1}, []int{64}, 1, nil); err == nil {
		t.Error("K=1 should fail")
	}
	if _, err := VSATimes([]int{2}, []int{0}, 1, nil); err == nil {
		t.Error("zero nodes should fail")
	}
}

func TestChurnSensitivity(t *testing.T) {
	rows, err := ChurnSensitivity(30, 128, []int{0, 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned rows: a change to how rounds are scheduled that shifts RNG
	// draws or event order moves these even when the qualitative checks
	// below still hold.
	want := []ChurnRow{
		{Churn: 0, Rounds: 5},
		{Churn: 4, Rounds: 5, MeanHeavyBefore: 18.5, MovedPerRound: 491.0636617984857},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
		if r.Failed > 0 {
			t.Errorf("churn %d: %d rounds failed", r.Churn, r.Failed)
		}
		if r.Rounds < 4 {
			t.Errorf("churn %d: only %d rounds ran", r.Churn, r.Rounds)
		}
	}
	// Churn keeps creating imbalance: the churned system should keep
	// finding heavy nodes in steady state while the static one is done
	// after round one.
	if rows[1].MeanHeavyBefore <= rows[0].MeanHeavyBefore {
		t.Errorf("churned system (%v heavy/round) not busier than static (%v)",
			rows[1].MeanHeavyBefore, rows[0].MeanHeavyBefore)
	}
	if rows[1].MeanHeavyAfter > rows[1].MeanHeavyBefore/2 {
		t.Errorf("rounds not absorbing churn: %v -> %v heavy",
			rows[1].MeanHeavyBefore, rows[1].MeanHeavyAfter)
	}
}

func TestChurnSensitivityValidation(t *testing.T) {
	if _, err := ChurnSensitivity(1, 64, []int{0}, 1); err == nil {
		t.Error("single round should fail")
	}
	if _, err := ChurnSensitivity(1, 64, []int{64}, 3); err == nil {
		t.Error("excessive churn rate should fail")
	}
	if _, err := ChurnSensitivity(1, 64, []int{-1}, 3); err == nil {
		t.Error("negative churn rate should fail")
	}
}

// TestChurnOnTopology is the regression test for the churn/underlay
// latency bug: on a topology-backed instance (ts5k-small), joiners used
// to arrive with the -1 "no underlay" sentinel, and the first latency
// query involving one read Distances.Between(-1, ...). Joiners now take
// real stub positions, so the churn sweep must complete without panics.
func TestChurnOnTopology(t *testing.T) {
	s := DefaultSetup(40)
	s.Nodes = 96
	tp := topology.TS5kSmall(40)
	s.Topology = &tp
	rows, err := ChurnSensitivitySetup(s, []int{3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Failed > 0 {
		t.Errorf("%d rounds failed under topology-backed churn", rows[0].Failed)
	}
	if rows[0].Rounds < 2 {
		t.Errorf("only %d rounds ran", rows[0].Rounds)
	}
}
