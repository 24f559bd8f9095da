package core

import (
	"p2plb/internal/chord"
)

// This file exports the rendezvous-pairing and classification
// primitives so that other executions of the same scheme — notably the
// event-driven message-level runner in internal/protocol — share one
// implementation with the Balancer instead of re-deriving the rules.

// NodeLBI returns the LBI report a node submits during aggregation:
// <L_i, C_i, L_{i,min}> (§3.2).
func NodeLBI(n *chord.Node) LBI { return nodeLBI(n) }

// ClassifyNode classifies one node against a global LBI tuple using the
// given slack and shed-subset strategy (§3.3, §3.4).
func ClassifyNode(n *chord.Node, global LBI, epsilon float64, strategy SubsetStrategy) *NodeState {
	b := &Balancer{cfg: Config{Epsilon: epsilon, Subset: strategy}}
	return b.classifyNode(n, global)
}

// Pair is one emitted pairing: virtual server VS moves from heavy node
// From to light node To.
type Pair struct {
	VS   *chord.VServer
	From *chord.Node
	To   *chord.Node
	Load float64
}

// PairList is the pair of sorted lists a rendezvous KT node maintains
// (§3.4): light-node deficits and offered virtual servers. The zero
// value is an empty list.
type PairList struct {
	lists vsaLists
}

// AddLight records a light node's advertisement <ΔL_j, ip_addr(j)>.
// group is the proximity cell the entry was published under (0 when
// proximity-ignorant).
func (p *PairList) AddLight(deficit float64, node *chord.Node, group uint64) {
	p.lists.lights = append(p.lists.lights, lightEntry{deficit: deficit, node: node, group: group})
}

// AddOffer records one shed virtual server <L_{i,k}, v_{i,k}, ip_addr(i)>.
func (p *PairList) AddOffer(vs *chord.VServer, node *chord.Node, group uint64) {
	p.lists.offers = append(p.lists.offers, offerEntry{load: vs.Load, vs: vs, node: node, group: group})
}

// Merge absorbs o's entries and returns p, so it serves directly as a
// converge-cast fold step; o must not be used afterwards.
func (p *PairList) Merge(o *PairList) *PairList {
	p.lists.merge(o.lists)
	return p
}

// Size returns the combined length of the two lists (the rendezvous
// threshold quantity).
func (p *PairList) Size() int { return p.lists.size() }

// Lights returns the number of light entries currently held.
func (p *PairList) Lights() int { return len(p.lists.lights) }

// Offers returns the number of offered virtual servers currently held.
func (p *PairList) Offers() int { return len(p.lists.offers) }

// OfferLoad sums the loads of the held offers.
func (p *PairList) OfferLoad() float64 {
	var s float64
	for _, o := range p.lists.offers {
		s += o.load
	}
	return s
}

// LightEntry is one held light-node advertisement, exposed for
// executors that must serialize a PairList across a process boundary.
type LightEntry struct {
	Deficit float64
	Node    *chord.Node
	Group   uint64
}

// OfferEntry is one held shed-VS offer, exposed for serialization.
type OfferEntry struct {
	VS    *chord.VServer
	Node  *chord.Node
	Group uint64
}

// Entries returns copies of the currently held advertisements — the
// payload a wire executor ships to the parent KT node. The list itself
// is not consumed.
func (p *PairList) Entries() ([]LightEntry, []OfferEntry) {
	lights := make([]LightEntry, len(p.lists.lights))
	for i, l := range p.lists.lights {
		lights[i] = LightEntry{Deficit: l.deficit, Node: l.node, Group: l.group}
	}
	offers := make([]OfferEntry, len(p.lists.offers))
	for i, o := range p.lists.offers {
		offers[i] = OfferEntry{VS: o.vs, Node: o.node, Group: o.group}
	}
	return lights, offers
}

// Pair runs the rendezvous pairing: proximity-local pairing first
// (same publication cell), then the paper's pooled heaviest-offer ×
// best-fit rule, re-inserting residual deficits of at least lmin.
// Unpaired entries remain held for propagation to the parent.
func (p *PairList) Pair(lmin float64) []Pair {
	p.lists.sort()
	pairs := p.lists.pairLocal(lmin)
	pairs = append(pairs, p.lists.pairAll(lmin)...)
	out := make([]Pair, len(pairs))
	for i, pr := range pairs {
		out[i] = Pair{VS: pr.offer.vs, From: pr.offer.node, To: pr.to, Load: pr.offer.load}
	}
	return out
}
