// Package lbnode is the runtime-agnostic protocol core: the per-KT-node
// state machines of the paper's load-balancing scheme, written as pure
// transitions — (state, incoming message) → (state′, outgoing actions) —
// with no notion of time, delivery, retransmission or concurrency.
//
// One round of the scheme decomposes into per-node machines:
//
//   - Epoch — the converge-cast epoch at one KT node, shared by both
//     bottom-up sweeps: buffer each child subtree's reply under its
//     child index, close (complete or expired) exactly once, then Fold
//     the node's own contribution with the replies in child-index order.
//     LBI aggregation (§3.2) folds core.LBI tuples seeded by LocalLBI;
//     the VSA sweep (§3.4) folds *core.PairList advertisement lists and
//     then pairs at rendezvous points via Rendezvous (threshold reached,
//     or the root), handing the unpaired rest upward.
//   - Roster — the dissemination endpoint: classify each physical node
//     against the global tuple the first time a copy reaches it,
//     duplicates are idempotent (§3.3).
//   - DepositVSA — a classified node's advertisement: a light node's
//     deficit entry or a heavy node's shed-VS offers (§3.4).
//   - Handoff — the two-phase virtual-server transfer for one pairing:
//     assign → prepare/reserve → commit, with abort on invalid or
//     failed endpoints; the commit applies exactly once (§3.4 VST).
//
// Executors own everything else: internal/protocol drives these
// machines through sim.Engine events (acks, retries, epoch timers,
// fault injection are transport concerns), internal/livenet drives the
// same machines over channels with one goroutine per subtree,
// internal/cluster runs them inside daemons over TCP, and core.Balancer
// remains the closed-form sequential reference. Because
// the machines are pure and single-threaded per node, an executor may
// call them from any scheduling discipline; the lbvet layercheck
// analyzer enforces that this package never imports sim, faults or par
// and never spawns goroutines.
package lbnode

import (
	"p2plb/internal/chord"
	"p2plb/internal/core"
)

// Classify runs the §3.3 classification rule for one node against the
// disseminated global tuple. It is a thin alias for core.ClassifyNode so
// executors take the classification phase from this package alongside
// the other machines.
func Classify(n *chord.Node, global core.LBI, epsilon float64, strategy core.SubsetStrategy) *core.NodeState {
	return core.ClassifyNode(n, global, epsilon, strategy)
}

// DepositVSA records one classified node's VSA advertisement in pl, the
// PairList at its reporting leaf: a light node contributes its deficit
// entry <ΔL_j, ip_addr(j)>, a heavy node one offer per shed virtual
// server. Neutral nodes deposit nothing. group is the proximity cell the
// advertisement was published under (0 when proximity-ignorant).
func DepositVSA(pl *core.PairList, st *core.NodeState, group uint64) {
	switch st.Class {
	case core.Light:
		pl.AddLight(st.Deficit, st.Node, group)
	case core.Heavy:
		for _, vs := range st.Offers {
			pl.AddOffer(vs, st.Node, group)
		}
	}
}

// Roster tracks which physical nodes have received the disseminated
// global tuple — the receiver-side state of the dissemination phase.
// Duplicate copies classify a node only once, and dead nodes are
// ignored.
type Roster struct {
	states map[*chord.Node]*core.NodeState
}

// NewRoster wraps states as the roster's backing store so executors can
// recycle the map across rounds; nil allocates a fresh one. The map must
// be empty.
func NewRoster(states map[*chord.Node]*core.NodeState) *Roster {
	if states == nil {
		states = make(map[*chord.Node]*core.NodeState)
	}
	return &Roster{states: states}
}

// Classify classifies node on the first delivery of the global tuple
// and records its state. It returns (nil, false) for a duplicate
// delivery or a dead node — the copy is absorbed without effect.
func (ro *Roster) Classify(node *chord.Node, global core.LBI, epsilon float64, strategy core.SubsetStrategy) (*core.NodeState, bool) {
	if _, ok := ro.states[node]; ok || !node.Alive {
		return nil, false
	}
	st := Classify(node, global, epsilon, strategy)
	ro.states[node] = st
	return st, true
}

// Census tallies the classes of every node classified so far.
func (ro *Roster) Census() (heavy, light, neutral int) {
	var c census
	for _, st := range ro.states {
		c.add(st.Class)
	}
	return c.heavy, c.light, c.neutral
}

// Tally counts classes over a slice of node states (nil entries are
// skipped) — the before-census of an executor that classified into a
// slice rather than through a Roster.
func Tally(states []*core.NodeState) (heavy, light, neutral int) {
	var c census
	for _, st := range states {
		if st != nil {
			c.add(st.Class)
		}
	}
	return c.heavy, c.light, c.neutral
}

// Census classifies every alive node afresh against the global tuple
// and tallies the classes — the end-of-round census both executors
// report after transfers have been applied.
func Census(nodes []*chord.Node, global core.LBI, epsilon float64, strategy core.SubsetStrategy) (heavy, light, neutral int) {
	var c census
	for _, n := range nodes {
		if n.Alive {
			c.add(Classify(n, global, epsilon, strategy).Class)
		}
	}
	return c.heavy, c.light, c.neutral
}

// census is the running heavy/light/neutral count behind the three
// tallies above.
type census struct{ heavy, light, neutral int }

func (c *census) add(class core.Class) {
	switch class {
	case core.Heavy:
		c.heavy++
	case core.Light:
		c.light++
	default:
		c.neutral++
	}
}
