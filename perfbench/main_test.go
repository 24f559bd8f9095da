package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2plb/internal/exp"
)

const declPath = "../BENCHMARK.json"

// buildLBD builds the daemon cluster-kill spawns.
func buildLBD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lbd")
	out, err := exec.Command("go", "build", "-o", bin, "p2plb/cmd/lbd").CombinedOutput()
	if err != nil {
		t.Fatalf("building lbd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size in
// both modes and holds its last output line to BENCHMARK.json: every
// declared metric of the mode, under its declared unit, and nothing
// else.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d, err := readDecl(declPath)
	if err != nil {
		t.Fatal(err)
	}
	lbd := buildLBD(t)
	for name := range workloads {
		for trace, want := range [][]declMetric{d.EndToEnd, d.PerLayer} {
			t.Run(name+map[int]string{0: "/e2e", 1: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				if err := run(&out, name, 3, 0, trace, lbd, t.TempDir(), declPath, toySizes); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed < 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s in %q, declared %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == 0 {
					for _, m := range want {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestRenamedOrMissingMetricFails checks that a result is refused when
// the declaration names a metric perfbench does not know, gives one
// another unit, leaves out a metric the pass set, or when a pass leaves
// a metric of a layer it exercises unset.
func TestRenamedOrMissingMetricFails(t *testing.T) {
	o := &outcome{attempted: 1, layer: map[string]float64{"serve.req_per_s": 1}}
	ok := []declMetric{{"serve.req_per_s", "1/s"}, {"wire.sent", "count"}}
	if _, err := fill(o, ok, o.layer, []string{"serve"}); err != nil {
		t.Fatalf("valid declaration refused: %v", err)
	}
	for _, tc := range []struct {
		name      string
		decl      []declMetric
		exercised []string
	}{
		{"renamed", []declMetric{{"serve.requests_per_s", "1/s"}}, []string{"serve"}},
		{"unit", []declMetric{{"serve.req_per_s", "ms"}}, []string{"serve"}},
		{"missing", []declMetric{{"serve.req_per_s", "1/s"}, {"serve.refresh_calls", "count"}}, []string{"serve"}},
		{"undeclared", []declMetric{{"wire.sent", "count"}}, []string{"serve"}},
	} {
		if _, err := fill(o, tc.decl, o.layer, tc.exercised); err == nil {
			t.Errorf("%s: declaration accepted", tc.name)
		}
	}
	// End to end, every declared metric must be measured.
	if _, err := fill(o, []declMetric{{"op_s", "s"}}, map[string]float64{}, nil); err == nil {
		t.Error("unmeasured end-to-end metric accepted")
	}
}

// TestSelfTime checks self time on a hand-built span tree: a parent of
// 10 ms with two children of 3 and 2 ms keeps 5 ms, and an async span
// neither counts as a child nor adds self time.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{ID: 1, Name: "serve.run", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "serve.refresh", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "chord.lookup", Start: 5 * ms, End: 7 * ms},
		{ID: 4, Parent: 1, Name: "protocol.round", Start: 2 * ms, End: 9 * ms, Async: true},
	}}
	self := tr.selfTime()
	want := map[string]float64{"serve": 0.008, "chord": 0.002}
	for l, w := range want {
		if d := self[l] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], w)
		}
	}
	if self["protocol"] != 0 {
		t.Errorf("async span added self time %v", self["protocol"])
	}
	var nilTracer *tracer
	if h := nilTracer.begin("x"); h != -1 {
		t.Errorf("nil tracer begin = %d", h)
	}
	nilTracer.end(-1)
}

// TestMainRejectsBadFlags covers the command-line surface.
func TestMainRejectsBadFlags(t *testing.T) {
	var out, errs bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--decl", declPath},
		{"--workload", "rebalance", "--trace", "2", "--decl", declPath},
		{"--workload", "rebalance", "--decl", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if code := mainErr(args, &out, &errs); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed a result on bad flags: %q", out.String())
	}
}

// TestDeterministicMetricsRepeat runs each in-process workload's traced
// run twice at one seed: every count, tick, Gini and ratio metric must
// come out identical. Times, rates, memory, allocation figures and self
// time shares are measurements and may differ.
func TestDeterministicMetricsRepeat(t *testing.T) {
	d, err := readDecl(declPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve-zipf", "rebalance", "rebalance-lossy"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]result
			for i := range runs {
				var out bytes.Buffer
				if err := run(&out, name, 5, 0, 1, "", t.TempDir(), declPath, toySizes); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range d.PerLayer {
				switch {
				case m.Unit == "1/s", m.Unit == "s", m.Unit == "MB", m.Unit == "B",
					strings.HasPrefix(m.Name, "go."), strings.HasPrefix(m.Name, "trace.self_frac."):
					continue
				}
				if a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value; a != b {
					t.Errorf("%s: %v then %v at the same seed", m.Name, a, b)
				}
			}
		})
	}
}

// TestFixtureMatchesExpBuild holds buildFixture to exp.Build's
// no-underlay set-up at toy size: the same virtual servers with the same
// owners and loads, the same node capacities and the same KT tree.
func TestFixtureMatchesExpBuild(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		const nodes = 200
		fx, err := buildFixture(seed, nodes, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		setup := exp.DefaultSetup(seed)
		setup.Nodes = nodes
		inst, err := exp.Build(setup)
		if err != nil {
			t.Fatal(err)
		}
		got, want := fx.ring.VServers(), inst.Ring.VServers()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d VSs, exp.Build has %d", seed, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Owner.Index != w.Owner.Index || g.Load != w.Load {
				t.Fatalf("seed %d, VS %d: %v on node %d with load %v, exp.Build has %v on node %d with load %v",
					seed, i, g.ID, g.Owner.Index, g.Load, w.ID, w.Owner.Index, w.Load)
			}
		}
		for i, n := range inst.Ring.Nodes() {
			if c := fx.ring.Nodes()[i].Capacity; c != n.Capacity {
				t.Fatalf("seed %d, node %d: capacity %v, exp.Build has %v", seed, i, c, n.Capacity)
			}
		}
		if fx.tree.NumNodes() != inst.Tree.NumNodes() || fx.tree.Height() != inst.Tree.Height() {
			t.Errorf("seed %d: KT tree of %d nodes, height %d; exp.Build has %d, height %d",
				seed, fx.tree.NumNodes(), fx.tree.Height(), inst.Tree.NumNodes(), inst.Tree.Height())
		}
	}
}
