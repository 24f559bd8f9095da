// Package livenet is the concurrent executor of the load-balancing
// protocol: it drives the same per-KT-node state machines as the
// deterministic-sim executor (internal/protocol) — lbnode.Epoch for
// both sweeps, lbnode.Classify, lbnode.DepositVSA — but over real
// goroutines and channels instead of simulated message events: one
// goroutine per KT subtree in the top levels, channels as the
// parent-child links. There is no algorithm copy here; the sweeps are a
// generic concurrent tree reduction (reduce) with the machine
// transitions as the per-node evaluation, so livenet is the multi-core
// fast path for very large rings by construction. The machines are pure
// and the LBI merge is commutative and associative, so the parallel
// execution's outcome is interleaving-independent; the tests run under
// the race detector and cross-check results against both core.Balancer
// and the protocol executor (see the cross-executor equivalence test in
// internal/lbnode).
//
// The live execution has no virtual clock and no fault plan: delivery
// is the Go memory model, so acks, retries and epoch timers — transport
// concerns of the sim executor — have no counterpart here.
package livenet

import (
	"fmt"
	"sort"
	"sync"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/lbnode"
	"p2plb/internal/par"
	"p2plb/internal/stats"
)

// spawnDepth bounds the goroutine fan-out of the parallel reductions:
// nodes above this depth get their own goroutine (up to K^spawnDepth of
// them — ample parallelism for any core count); deeper subtrees reduce
// sequentially inside their ancestor's goroutine. Without the cutoff a
// full-scale tree (~700k KT nodes) would allocate hundreds of thousands
// of stacks for no extra parallelism.
const spawnDepth = 8

// reduce runs a bottom-up converge-cast over the KT tree: eval sees one
// node together with its children's already-reduced results (in child
// order) and returns the node's own result. KT nodes in the top
// spawnDepth levels run as goroutines reading their children's results
// from channels; deeper subtrees reduce sequentially. eval runs exactly
// once per node, from a single goroutine at a time, so driving a pure
// lbnode machine inside it needs no locking.
func reduce[T any](root *ktree.Node, eval func(n *ktree.Node, children []T) T) T {
	var sequential func(n *ktree.Node) T
	sequential = func(n *ktree.Node) T {
		var children []T
		for _, c := range n.Children {
			children = append(children, sequential(c))
		}
		return eval(n, children)
	}
	var spawn func(n *ktree.Node) <-chan T
	spawn = func(n *ktree.Node) <-chan T {
		out := make(chan T, 1)
		if n.Depth >= spawnDepth {
			go func() { out <- sequential(n) }()
			return out
		}
		var childCh []<-chan T
		for _, c := range n.Children {
			childCh = append(childCh, spawn(c))
		}
		go func() {
			children := make([]T, len(childCh))
			for i, ch := range childCh {
				children[i] = <-ch
			}
			out <- eval(n, children)
		}()
		return out
	}
	return <-spawn(root)
}

// AggregateLBI performs the bottom-up LBI converge-cast concurrently,
// one lbnode.Epoch per KT node: local reports seed the fold, children's
// subtree aggregates fold through the machine in child-index order (the
// machine buffers them, so the sim executor's arrival-order replies
// fold identically).
func AggregateLBI(tree *ktree.Tree, inbox map[*ktree.Node][]core.LBI) core.LBI {
	return reduce(tree.Root(), func(n *ktree.Node, children []core.LBI) core.LBI {
		col := lbnode.NewEpoch[core.LBI](len(children))
		for i, sub := range children {
			col.ChildReply(i, sub)
		}
		return lbnode.Fold(&col, lbnode.LocalLBI(inbox[n]), core.LBI.Merge)
	})
}

// pairSink collects pairings emitted by concurrently running
// rendezvous goroutines.
type pairSink struct {
	mu    sync.Mutex
	pairs []core.Pair
}

func (s *pairSink) add(ps []core.Pair) {
	if len(ps) == 0 {
		return
	}
	s.mu.Lock()
	s.pairs = append(s.pairs, ps...)
	s.mu.Unlock()
}

// SweepVSA performs the bottom-up VSA sweep concurrently, one
// lbnode.Epoch per KT node: children's unpaired lists fold into the
// node's inbox through the machine, rendezvous points (threshold
// reached, or the root) pair and emit, and leftovers flow upward. It
// returns all pairings and the list left unpaired at the root. The
// inbox PairLists are consumed.
func SweepVSA(tree *ktree.Tree, inbox map[*ktree.Node]*core.PairList, lmin float64, threshold int) ([]core.Pair, *core.PairList) {
	sink := &pairSink{}
	left := reduce(tree.Root(), func(n *ktree.Node, children []*core.PairList) *core.PairList {
		col := lbnode.NewEpoch[*core.PairList](len(children))
		for i, sub := range children {
			col.ChildReply(i, sub)
		}
		own := inbox[n]
		if own == nil {
			own = &core.PairList{}
		}
		lists := lbnode.Fold(&col, own, (*core.PairList).Merge)
		sink.add(lbnode.Rendezvous(lists, n.Parent == nil, threshold, lmin))
		return lists
	})
	// By the time reduce returns, every worker that called sink.add has
	// been joined through the per-node channels, so the sink is
	// quiescent and this read cannot race the locked writers.
	//lbvet:ignore lockguard reduce joins all workers before this read; the sink is quiescent
	return sink.pairs, left
}

// Result is a concurrent round's outcome (a subset of core.Result: the
// live execution has no virtual clock, so there are no phase times).
type Result struct {
	Global                                  core.LBI
	HeavyBefore, LightBefore, NeutralBefore int
	HeavyAfter, LightAfter, NeutralAfter    int
	Assignments                             []core.Pair
	MovedLoad                               float64
	UnassignedOffers                        int
}

// RunRound executes a complete load-balancing round with concurrent
// sweeps: parallel LBI reduction, parallel classification, concurrent
// VSA sweep, then transfers applied to the ring. The randomized
// reporting choices are drawn sequentially from the ring engine's RNG
// through the canonical placement pre-pass (lbnode.PlaceRound) — the
// identical sequence the deterministic-sim executor draws — so a round
// is reproducible even though execution interleaving is not, and the
// two executors' transfer sets match exactly.
func RunRound(ring *chord.Ring, tree *ktree.Tree, cfg core.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != core.ProximityIgnorant {
		return nil, fmt.Errorf("livenet: only proximity-ignorant rounds are implemented")
	}
	if ring.NumVServers() == 0 {
		return nil, fmt.Errorf("livenet: ring has no virtual servers")
	}
	if tree.Root() == nil {
		if err := tree.Build(); err != nil {
			return nil, err
		}
	}

	// Canonical placement (sequential: consumes the engine RNG), then
	// the concurrent aggregation.
	place := lbnode.PlaceRound(ring, tree, ring.Engine().Rand(), nil)
	lbiInbox := make(map[*ktree.Node][]core.LBI)
	place.DepositReports(lbiInbox)
	global := AggregateLBI(tree, lbiInbox)
	if !global.Valid() {
		return nil, fmt.Errorf("livenet: no node reported LBI")
	}
	res := &Result{Global: global}

	// Classification in parallel across nodes.
	states := make([]*core.NodeState, len(place.Nodes))
	par.For(len(place.Nodes), 0, func(i int) {
		states[i] = lbnode.Classify(place.Nodes[i], global, cfg.Epsilon, cfg.Subset)
	})
	res.HeavyBefore, res.LightBefore, res.NeutralBefore = lbnode.Tally(states)

	// VSA inboxes from the placement, concurrent sweep.
	vsaInbox := make(map[*ktree.Node]*core.PairList)
	for _, st := range states {
		if st.Class == core.Neutral {
			continue
		}
		leaf, ok := place.VSALeaf[st.Node]
		if !ok {
			continue // fresh joiner: no leaf until the next repair
		}
		pl := vsaInbox[leaf]
		if pl == nil {
			pl = &core.PairList{}
			vsaInbox[leaf] = pl
		}
		lbnode.DepositVSA(pl, st, 0)
	}
	pairs, left := SweepVSA(tree, vsaInbox, global.Lmin, cfg.RendezvousThreshold)
	// The sink collects pairs in goroutine-completion order; sort them
	// so the result (including float summation order) is reproducible.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].VS.ID < pairs[j].VS.ID }) //lbvet:ignore identcompare total-order sort for a reproducible result order
	res.Assignments = pairs
	res.UnassignedOffers = left.Offers()

	// Transfers mutate the ring: apply sequentially.
	for _, p := range pairs {
		ring.Transfer(p.VS, p.To)
		res.MovedLoad += p.Load
	}
	res.HeavyAfter, res.LightAfter, res.NeutralAfter = lbnode.Census(ring.Nodes(), global, cfg.Epsilon, cfg.Subset)
	if _, err := tree.Repair(); err != nil {
		return nil, err
	}
	return res, nil
}

// UnitLoadGini is the imbalance metric every executor and experiment
// reports: the Gini coefficient of per-node unit load over the living
// membership. Nodes without capacity have no unit load and are skipped.
func UnitLoadGini(ring *chord.Ring) float64 {
	var units []float64
	for _, n := range ring.AliveNodes() {
		if n.Capacity > 0 {
			units = append(units, n.TotalLoad()/n.Capacity)
		}
	}
	return stats.Gini(units)
}
