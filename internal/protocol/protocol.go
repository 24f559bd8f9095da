// Package protocol executes the load-balancing scheme as explicit
// messages on the discrete-event engine — the fully distributed
// counterpart of core.Balancer's closed-form round.
//
// The per-node protocol logic itself — the converge-cast epoch, the
// classification roster, VSA rendezvous pairing, the two-phase VST
// handoff — lives in internal/lbnode as pure state machines shared with
// the concurrent executor (internal/livenet). This package is the
// deterministic-sim driver for those machines: it owns everything the
// machines deliberately do not — delivery through sim.Engine (so a
// fault plan can interfere), per-child epoch timers, sequence-numbered
// acks with retransmission, and the per-round scratch recycling. Both
// bottom-up sweeps run on one pull converge-cast walk with per-child
// timeouts, one lbnode.Epoch per KT node: LBI aggregation carries
// <L, C, Lmin> tuples, the VSA sweep carries the actual lists and its
// rendezvous points emit pair notifications as messages. Between them
// the global tuple is disseminated hop by hop and proximity-aware
// advertisements are published through routed Chord lookups; transfers
// occupy simulated time.
// Because every step is an event, nodes may crash *during* a round:
// dead subtrees simply stop replying, parents proceed after a timeout
// with partial data, and the next round (after tree repair) picks up
// the remainder — the fault-tolerance behaviour §3.1-3.4 argue for and
// defer to future work to evaluate.
//
// All three executions share the classification and pairing rules
// through lbnode and core's exported primitives, so on a static ring
// they produce equivalent balancing outcomes.
//
// Every message is sent through sim.Engine.Deliver, so a fault plan
// (internal/faults) can drop, duplicate or delay it. The flows that
// must survive that are hardened: converge-cast replies, dissemination
// copies and pairing notifications carry sequence-numbered acks with
// bounded, exponentially backed-off retransmission and receiver-side
// dedup (exactly-once handler execution), and the virtual-server
// transfer is a two-phase prepare/commit handoff whose commit applies
// ring.Transfer exactly once — a VS is never lost and never
// double-hosted no matter where a drop, duplicate or crash lands
// (chord.Ring.CheckConservation is the executable statement of that
// guarantee). The per-level epoch timeouts remain the backstop for what
// retransmission cannot fix: dead or partitioned subtrees.
package protocol

import (
	"fmt"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ktree"
	"p2plb/internal/lbnode"
	"p2plb/internal/sim"
	"p2plb/internal/stats"
)

// Message kinds counted on the engine.
const (
	MsgCollectDown = "protocol.lbi-collect"  // parent → child LBI pull
	MsgReportUp    = "protocol.lbi-report"   // child → parent LBI reply
	MsgDisperse    = "protocol.lbi-disperse" // parent → child global tuple
	MsgPublish     = "protocol.vsa-publish"  // final hop of a routed VSA publication
	MsgVSADown     = "protocol.vsa-collect"  // parent → child VSA pull
	MsgVSAUp       = "protocol.vsa-report"   // child → parent VSA reply
	MsgAssign      = "protocol.vsa-assign"   // rendezvous → endpoints
	MsgPrepare     = "protocol.vst-prepare"  // heavy → light handoff reservation
	MsgTransfer    = "protocol.vst-transfer" // the virtual server movement (commit)
)

// MsgAckSuffix is appended to a reliable message's kind for its
// acknowledgement (e.g. "protocol.lbi-report.ack").
const MsgAckSuffix = ".ack"

// Config parameterizes a Runner.
type Config struct {
	// Core carries the balancing semantics (mode, epsilon, threshold,
	// mapper, subset strategy, transfer-cost metric).
	Core core.Config
	// ChildTimeout is the per-level epoch slack: a KT node at depth d
	// waits ChildTimeout·(height−d+1) for its children's replies before
	// proceeding with partial data (crashed subtrees never reply).
	// Scaling with remaining subtree height is essential — with a flat
	// window every ancestor would give up just before its child's
	// partial reply arrived, cascading data loss to the root. The value
	// must exceed the worst one-hop reply latency; 0 means a generous
	// default of 5000 time units per level. It only affects rounds in
	// which something actually failed.
	ChildTimeout sim.Time
	// PrefixRouting publishes proximity-aware advertisements with
	// Pastry-style prefix routing instead of Chord finger routing —
	// the §4.3 claim that the scheme adapts to other DHTs. It changes
	// only lookup paths, never outcomes.
	PrefixRouting bool
}

// defaultChildTimeout is the per-level slack used when Config leaves
// ChildTimeout zero.
const defaultChildTimeout = 5000

// maxRetries bounds how often a reliable message (converge-cast
// replies, dissemination, pairing notifications, the two-phase handoff)
// is retransmitted when its ack does not arrive. The retransmission
// timer starts at one round trip plus slack and doubles per attempt
// (exponential backoff). Five doublings from one round trip tolerate
// ~30% loss with high probability without stretching timed-out epochs;
// lossless runs never retransmit.
const maxRetries = 5

// Runner executes rounds over a ring and its tree.
type Runner struct {
	ring *chord.Ring
	tree *ktree.Tree
	cfg  Config
	eng  *sim.Engine

	roundActive bool
	scratch     *roundScratch
}

// roundScratch holds the per-round maps (and the report slices inside
// lbiInbox) that steady-state callers — periodic rounds, churn sweeps,
// the serving layer's round scheduler — would otherwise reallocate
// every round. A round hands its scratch back only when it finished
// clean: after a timeout or an aborted transfer, stale epoch events may
// still read the maps (and a late VSA reply can even mutate its
// PairList), so such rounds drop the scratch instead of recycling it.
type roundScratch struct {
	lbiInbox map[*ktree.Node][]core.LBI
	states   map[*chord.Node]*core.NodeState
	vsaInbox map[*ktree.Node]*core.PairList
	leafOfVS map[*chord.VServer]*ktree.Node
}

// takeScratch returns a cleared scratch for the next round, reusing the
// previous round's maps when available.
func (r *Runner) takeScratch() *roundScratch {
	sc := r.scratch
	r.scratch = nil
	if sc == nil {
		return &roundScratch{
			lbiInbox: make(map[*ktree.Node][]core.LBI),
			states:   make(map[*chord.Node]*core.NodeState),
			vsaInbox: make(map[*ktree.Node]*core.PairList),
			leafOfVS: make(map[*chord.VServer]*ktree.Node),
		}
	}
	// Tree repair retires KT nodes between rounds; once dead keys
	// clearly dominate, a fresh map beats dragging their buckets along.
	if len(sc.lbiInbox) > 2*r.tree.NumNodes()+16 {
		sc.lbiInbox = make(map[*ktree.Node][]core.LBI)
	} else {
		for k, v := range sc.lbiInbox {
			sc.lbiInbox[k] = v[:0]
		}
	}
	clear(sc.states)
	clear(sc.vsaInbox)
	clear(sc.leafOfVS)
	return sc
}

// NewRunner returns a Runner. The tree must belong to the ring.
func NewRunner(ring *chord.Ring, tree *ktree.Tree, cfg Config) (*Runner, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if tree.Ring() != ring {
		return nil, fmt.Errorf("protocol: tree is built over a different ring")
	}
	if cfg.ChildTimeout < 0 {
		return nil, fmt.Errorf("protocol: negative child timeout")
	}
	return &Runner{ring: ring, tree: tree, cfg: cfg, eng: ring.Engine()}, nil
}

// Result extends core.Result with the protocol-level evidence.
type Result struct {
	core.Result
	// TimedOutChildren counts child epochs a parent gave up waiting
	// for (dead or unreachable subtrees).
	TimedOutChildren int
	// AbortedTransfers counts pairings whose endpoint died before the
	// transfer completed, or whose prepare/commit phase exhausted its
	// retries.
	AbortedTransfers int
	// NodesClassified counts nodes that received the global tuple.
	NodesClassified int
	// Retries counts retransmissions of reliable messages (zero on a
	// lossless network).
	Retries int
}

// round carries one round's mutable state.
type round struct {
	r       *Runner
	timeout sim.Time
	start   sim.Time

	lbiInbox map[*ktree.Node][]core.LBI
	global   core.LBI
	place    *lbnode.Placement // canonical randomized placement, drawn before any event

	roster     *lbnode.Roster // dissemination endpoint state (over scratch's states map)
	vsaInbox   map[*ktree.Node]*core.PairList
	leafOfVS   map[*chord.VServer]*ktree.Node
	publishing int // outstanding routed publications

	// Reliable-delivery state. seen is the receiver-side dedup set: a
	// sequence number enters it when its message is first accepted, so
	// duplicated or retransmitted copies are idempotent. Sequence numbers
	// are allocated densely from zero per round, so the set is a growable
	// bitset rather than a map — at large scale it is touched once per
	// delivered copy. It starts fresh every round (never recycled through
	// roundScratch); late retransmits from a previous round are fenced by
	// their own round's finished flag, not by this set.
	nextSeq uint64
	seen    seqSet
	exFree  []*exchange // settled exchanges recycled by reliable()

	deadline sim.Timer // round-failure backstop, canceled on completion

	outstandingTransfers int
	vsaDone              bool
	finished             bool

	// Chunked slabs for the tree-walk objects (epochNode, epochEdge,
	// dispEdge): the walks allocate one object per live tree node/edge
	// per phase, and a slab turns those into one heap allocation per
	// slabChunk objects. The backing arrays die with the round.
	epochNodes []epochNode
	epochEdges []epochEdge
	dispEdges  []dispEdge

	res    *Result
	finish func(*Result, error)
}

// slabChunk is how many walk objects one slab allocation holds.
const slabChunk = 256

// slabAlloc hands out the next zeroed object from a chunked slab,
// refilling it with a fresh backing array when empty.
func slabAlloc[T any](s *[]T) *T {
	if len(*s) == 0 {
		*s = make([]T, slabChunk)
	}
	p := &(*s)[0]
	*s = (*s)[1:]
	return p
}

// seqSet is a growable bitset over densely allocated sequence numbers.
type seqSet struct{ bits []uint64 }

//lbvet:hotpath
func (s *seqSet) has(seq uint64) bool {
	w := seq >> 6
	return w < uint64(len(s.bits)) && s.bits[w]&(1<<(seq&63)) != 0
}

func (s *seqSet) add(seq uint64) {
	w := seq >> 6
	for uint64(len(s.bits)) <= w {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (seq & 63)
}

// done completes the round exactly once.
func (rd *round) done(res *Result, err error) {
	if rd.finished {
		return
	}
	rd.finished = true
	rd.r.eng.Cancel(rd.deadline)
	rd.finish(res, err)
}

// StartRound begins one asynchronous load-balancing round; done fires
// on the engine when the round (including all transfers) completes.
// Only one round may be active at a time.
func (r *Runner) StartRound(done func(*Result, error)) error {
	if r.roundActive {
		return fmt.Errorf("protocol: round already active")
	}
	if r.ring.NumVServers() == 0 {
		return fmt.Errorf("protocol: ring has no virtual servers")
	}
	if r.tree.Root() == nil {
		if err := r.tree.Build(); err != nil {
			return err
		}
	}
	// Same contract as core.Balancer.RunRound: a configured LoadSource
	// snapshots its current view into vs.Load before the LBI sweep reads
	// it (the serving layer's observed request rates refresh here).
	if r.cfg.Core.Loads != nil {
		r.cfg.Core.Loads.Refresh(r.ring)
	}
	r.roundActive = true
	timeout := r.cfg.ChildTimeout
	if timeout == 0 {
		timeout = defaultChildTimeout
	}
	sc := r.takeScratch()
	rd := &round{
		r:        r,
		timeout:  timeout,
		start:    r.eng.Now(),
		lbiInbox: sc.lbiInbox,
		roster:   lbnode.NewRoster(sc.states),
		vsaInbox: sc.vsaInbox,
		leafOfVS: sc.leafOfVS,
		res: &Result{Result: core.Result{
			Mode:        r.cfg.Core.Mode,
			MovedByHops: &stats.WeightedHistogram{},
			TreeHeight:  r.tree.Height(),
		}},
		finish: func(res *Result, err error) {
			r.roundActive = false
			// Recycle the scratch only after a perfectly clean round:
			// timeouts, aborts and retransmissions all mean stale epoch
			// events or late copies may still reference the maps.
			if err == nil && res.TimedOutChildren == 0 && res.AbortedTransfers == 0 && res.Retries == 0 {
				r.scratch = sc
			}
			r.recordRound(res, err)
			done(res, err)
		},
	}
	// Hard deadline: if the root itself dies mid-round the epoch can
	// never complete; fail the round so the caller can repair and retry.
	// A completing round cancels it so the engine drains immediately.
	rd.deadline = r.eng.After(8*rd.epochWindow(r.tree.Root()), func() {
		rd.done(nil, fmt.Errorf("protocol: round deadline exceeded (root unreachable?)"))
	})
	// Draw the round's canonical placement before the first event: the
	// concurrent executor consumes the identical RNG sequence, so both
	// executors deposit identical per-leaf inboxes (see lbnode.PlaceRound).
	rd.place = lbnode.PlaceRound(r.ring, r.tree, r.eng.Rand(), sc.leafOfVS)
	rd.place.DepositReports(rd.lbiInbox)
	rd.startEpoch(false, r.tree.Root(), nil) // the LBI sweep; publishDone starts the VSA one
	return nil
}

// lbiAggregated continues the round once the root's LBI epoch closes:
// the global tuple is disseminated hop by hop, and the VSA epoch starts
// once all deliveries and publications are done (tracked per delivery).
func (rd *round) lbiAggregated(global core.LBI) {
	if !global.Valid() {
		rd.done(nil, fmt.Errorf("protocol: no node reported LBI"))
		return
	}
	rd.global = global
	rd.res.Global = global
	rd.res.TimeLBIAggregate = rd.r.eng.Now() - rd.start
	rd.disseminate(rd.r.tree.Root())
}

// recordRound publishes one round's outcome to the engine's metrics
// registry (no-op without one): measured per-phase durations in virtual
// latency units plus the failure evidence a message-level round can
// produce (timed-out child epochs, aborted transfers).
func (r *Runner) recordRound(res *Result, err error) {
	reg := r.eng.Metrics()
	if reg == nil {
		return
	}
	reg.Counter("protocol.rounds").Inc()
	if err != nil {
		reg.Counter("protocol.round_errors").Inc()
		return
	}
	reg.Histogram("protocol.phase.lbi_aggregate").Observe(int64(res.TimeLBIAggregate))
	reg.Histogram("protocol.phase.lbi_disseminate").Observe(int64(res.TimeLBIDisseminate - res.TimeLBIAggregate))
	if res.TimePublish > 0 {
		reg.Histogram("protocol.phase.publish").Observe(int64(res.TimePublish - res.TimeLBIDisseminate))
	}
	reg.Histogram("protocol.phase.vsa").Observe(int64(res.TimeVSAComplete))
	reg.Histogram("protocol.phase.vst").Observe(int64(res.TimeVSTComplete))
	reg.Counter("protocol.timeouts").Add(int64(res.TimedOutChildren))
	reg.Counter("protocol.aborted_transfers").Add(int64(res.AbortedTransfers))
	reg.Counter("protocol.retries").Add(int64(res.Retries))
	reg.Counter("protocol.pairs.assigned").Add(int64(len(res.Assignments)))
	reg.Counter("protocol.pairs.unassigned").Add(int64(res.UnassignedOffers))
	reg.Float("protocol.moved_load").Add(res.MovedLoad)
}

// alive reports whether the KT node is currently operational (its
// hosting virtual server's owner is alive). Crashed hosts silently drop
// epoch messages; Repair replants them between rounds.
func (rd *round) alive(n *ktree.Node) bool {
	return n.Host.Owner.Alive
}

// epochWindow returns how long the KT node n waits for its children's
// epoch replies: the per-level slack times the remaining subtree height,
// so a parent's window always outlasts its children's.
func (rd *round) epochWindow(n *ktree.Node) sim.Time {
	levels := rd.r.tree.Height() - n.Depth + 1
	if levels < 1 {
		levels = 1
	}
	return rd.timeout * sim.Time(levels)
}

// hostIdx returns the physical-node index hosting a KT node, the
// endpoint identity the fault layer partitions on.
func hostIdx(n *ktree.Node) int { return n.Host.Owner.Index }

// rhandler is the callback pair of one reliable exchange, implemented
// on pooled per-edge walk objects so a reliable send costs no closure
// allocations. reliableEv delivers with at-least-once retransmission
// and receiver-side dedup — together, exactly-once handler execution:
//
//   - each copy that arrives offers the message to HandleMsg; the
//     first accepted copy marks the sequence number seen, so
//     duplicates and retransmits only re-ack. HandleMsg returning
//     false models a dead or no-longer-valid receiver: no dedup mark,
//     no ack — silence.
//   - every accepted arrival acks back to the sender; the first ack
//     settles the exchange.
//   - the sender retransmits when no ack arrives within the timer —
//     one round trip plus slack, doubling per attempt — up to the
//     maxRetries bound, then settles failed.
//
// SettleMsg(ok) runs exactly once per send (ok: an ack arrived; !ok:
// retries exhausted). A settled failure does NOT imply the handler
// never ran — the data may have arrived with every ack lost — so
// side effects that must not double (the VST commit) live in the
// handler behind the dedup, and failure paths only release resources.
type rhandler interface {
	HandleMsg() bool
	SettleMsg(ok bool)
}

// reliableEv is reliable with an object callback pair.
//
//lbvet:hotpath
func (rd *round) reliableEv(kind string, src, dst int, cost sim.Time, h rhandler) {
	ex := rd.newExchange(kind, src, dst, cost)
	ex.h = h
	ex.send()
}

//lbvet:hotpath
func (rd *round) newExchange(kind string, src, dst int, cost sim.Time) *exchange {
	var ex *exchange
	if n := len(rd.exFree); n > 0 {
		ex = rd.exFree[n-1]
		rd.exFree[n-1] = nil
		rd.exFree = rd.exFree[:n-1]
		ex.kind, ex.ackKind = kind, ackKindOf(kind)
		ex.src, ex.dst, ex.cost = src, dst, cost
		ex.seq = rd.nextSeq
		ex.attemptsLeft = maxRetries + 1
		ex.backoff = 2*cost + 2
		ex.settled = false
		ex.rto = sim.Timer{}
	} else {
		//lbvet:ignore hotalloc pool miss: one exchange object per peak-concurrency slot, recycled for the rest of the round
		ex = &exchange{
			rd: rd, kind: kind, ackKind: ackKindOf(kind),
			src: src, dst: dst, cost: cost,
			seq:          rd.nextSeq,
			attemptsLeft: maxRetries + 1,
			backoff:      2*cost + 2,
		}
		// Wire the three embedded event adapters once per exchange
		// object: interior pointers into the exchange itself, reused
		// across retransmissions, duplicate arrivals and (through the
		// pool) later exchanges, so the steady-state cost is zero
		// allocations instead of a fresh closure per attempt — at 256k
		// VSs the per-attempt closures were the round's dominant
		// garbage.
		ex.arriveEv.ex = ex
		ex.ackEv.ex = ex
		ex.rtoEv.ex = ex
	}
	rd.nextSeq++
	return ex
}

// ackKindOf maps a reliable kind to its ack kind without concatenating
// at send time (constant folding keeps the switch allocation-free).
func ackKindOf(kind string) string {
	switch kind {
	case MsgCollectDown:
		return MsgCollectDown + MsgAckSuffix
	case MsgReportUp:
		return MsgReportUp + MsgAckSuffix
	case MsgDisperse:
		return MsgDisperse + MsgAckSuffix
	case MsgVSADown:
		return MsgVSADown + MsgAckSuffix
	case MsgVSAUp:
		return MsgVSAUp + MsgAckSuffix
	case MsgAssign:
		return MsgAssign + MsgAckSuffix
	case MsgPrepare:
		return MsgPrepare + MsgAckSuffix
	case MsgTransfer:
		return MsgTransfer + MsgAckSuffix
	}
	return kind + MsgAckSuffix
}

// exchange is one reliable message's in-flight state: the sender side
// (retransmission attempts, the cancelable rto timer, the settle
// outcome) and the receiver side (dedup by sequence number, the ack).
type exchange struct {
	rd           *round
	kind         string
	ackKind      string
	src, dst     int
	cost         sim.Time
	seq          uint64
	attemptsLeft int
	backoff      sim.Time
	settled      bool
	rto          sim.Timer
	h            rhandler // receiver handler + sender settle outcome

	arriveEv arriveEv
	ackEv    ackEv
	rtoEv    rtoEv
}

// arriveEv, ackEv and rtoEv adapt the exchange's three event entry
// points to sim.Eventer. They are embedded by value so scheduling one
// passes an interior pointer — no per-event closure, no per-exchange
// method-value allocations.
type arriveEv struct{ ex *exchange }

//lbvet:hotpath
func (a *arriveEv) RunEvent() { a.ex.arrive() }

type ackEv struct{ ex *exchange }

//lbvet:hotpath
func (a *ackEv) RunEvent() { a.ex.resolve(true) }

type rtoEv struct{ ex *exchange }

//lbvet:hotpath
func (r *rtoEv) RunEvent() { r.ex.onRTO() }

// resolve settles the exchange exactly once. The pending retransmission
// timer is revoked instead of firing into a dead check — on a lossless
// network no rto timer ever fires, which at scale was a third of a
// round's event volume.
func (ex *exchange) resolve(ok bool) {
	if ex.settled {
		return
	}
	ex.settled = true
	ex.rd.r.eng.Cancel(ex.rto)
	ex.h.SettleMsg(ok)
	// Without a fault filter the exchange is provably unreferenced once
	// it settles — every copy transmits exactly once and is consumed on
	// arrival before the rto window closes (backoff > cost), the queue
	// consumed the event that invoked this very callback before running
	// it, and Cancel released the rto slot — so it recycles into the
	// round's pool. With a filter, duplicate or delayed copies may still
	// hold the callbacks; those exchanges are left to the GC.
	if ex.rd.r.eng.Filter() == nil {
		ex.h = nil
		ex.rd.exFree = append(ex.rd.exFree, ex)
	}
}

// send transmits one copy and arms the retransmission timer. On a
// lossless network (no fault filter) the timer is not armed here at
// all: the single copy provably arrives, and the only outcome that
// needs a retransmission — the handler refusing the message — arms it
// from the refusal itself (see arrive). At scale the always-armed,
// always-canceled rto was roughly a quarter of all queue traffic.
func (ex *exchange) send() {
	if ex.settled || ex.rd.finished {
		return
	}
	eng := ex.rd.r.eng
	eng.DeliverEv(ex.kind, ex.src, ex.dst, ex.cost, &ex.arriveEv)
	if eng.Filter() != nil {
		ex.rto = eng.AfterEv(ex.backoff, &ex.rtoEv)
	}
}

// arrive runs at the receiver for every copy that lands: the first
// accepted copy executes the handler and enters the dedup set; every
// accepted arrival (re-)acks.
func (ex *exchange) arrive() {
	rd := ex.rd
	if rd.finished {
		return
	}
	if !rd.seen.has(ex.seq) {
		if !ex.h.HandleMsg() {
			// Refused: no dedup mark, no ack — the sender must time
			// out. Lossless sends skipped the eager rto (see send), so
			// arm it now for the instant the eager timer would have
			// fired: this copy left at now-cost, so the window closes
			// backoff-cost from now. The doubling ladder is unchanged —
			// onRTO retransmits at exactly the eager schedule's times.
			if ex.rto.Zero() && ex.rd.r.eng.Filter() == nil {
				ex.rto = ex.rd.r.eng.AfterEv(ex.backoff-ex.cost, &ex.rtoEv)
			}
			return
		}
		rd.seen.add(ex.seq)
	}
	rd.r.eng.DeliverEv(ex.ackKind, ex.dst, ex.src, ex.cost, &ex.ackEv)
}

// onRTO fires when no ack arrived within the backoff window:
// retransmit with a doubled window, or settle failed once the attempts
// are spent.
func (ex *exchange) onRTO() {
	if ex.settled || ex.rd.finished {
		return
	}
	if ex.attemptsLeft <= 1 {
		ex.resolve(false)
		return
	}
	ex.rd.res.Retries++
	ex.attemptsLeft--
	ex.backoff *= 2
	// This handle was just consumed by firing; clear it so a lossless
	// retransmission's refusal can arm a fresh one (see arrive).
	ex.rto = sim.Timer{}
	ex.send()
}

// leafFor returns the single leaf a virtual server reports through this
// round, or nil for a VS the tree does not know yet: a virtual server
// that joined since the last repair (a restarted node rejoining
// mid-round) has no leaves until Repair plants them, so its reports
// simply sit out the round — the soft-state behaviour, not an error.
// The cache is shared with the placement pre-pass, so lazy draws (the
// routed proximity-aware publication path, whose target VS is only
// known once the lookup lands) never contradict a placed report.
func (rd *round) leafFor(vs *chord.VServer) *ktree.Node {
	if leaf, ok := rd.leafOfVS[vs]; ok {
		return leaf
	}
	var leaf *ktree.Node
	if leaves := rd.r.tree.LeavesOf(vs); len(leaves) > 0 {
		leaf = leaves[rd.r.eng.Rand().Intn(len(leaves))]
	}
	rd.leafOfVS[vs] = leaf
	return leaf
}

// mergeLBI and mergeList are the two sweeps' fold steps. The epoch
// machine buffers the edge a reply arrived on (the reply itself already
// lives there), so a buffered slot costs one pointer.
func mergeLBI(acc core.LBI, e *epochEdge) core.LBI { return acc.Merge(e.lbi) }

func mergeList(acc *core.PairList, e *epochEdge) *core.PairList { return acc.Merge(e.list) }

// epochNode drives one internal node's epoch of either bottom-up sweep:
// the lbnode.Epoch machine, the epoch timer, and the link to the parent
// edge the result reports through (nil at the root).
type epochNode struct {
	rd       *round
	n        *ktree.Node
	ni       int
	vsa      bool // the VSA sweep; otherwise LBI aggregation
	col      lbnode.Epoch[*epochEdge]
	parent   *epochEdge
	expire   sim.Timer
	expireEv epochExpire
}

// epochEdge is one parent→child link of an epoch: the target of the
// downward pull, the buffer for the child subtree's reply (its LBI
// aggregate or its unpaired VSA list, by sweep), and the two
// reliable-exchange handler roles (pull arriving at the child, reply
// arriving back at the parent) as embedded adapters.
type epochEdge struct {
	nd   *epochNode // parent's machine
	c    *ktree.Node
	ci   int
	chi  int
	edge sim.Time
	lbi  core.LBI
	list *core.PairList
	down epochDown
	up   epochUp
}

// startEpoch begins n's epoch of a pull converge-cast: LBI aggregation,
// which collects <L, C, Lmin> (§3.2), or the VSA sweep, which collects
// the unpaired advertisement lists and pairs at rendezvous points
// (§3.4). Leaves answer from their inbox; internal nodes query their
// children, buffer the replies in one lbnode.Epoch per node, and give
// up on silent children after the timeout. parent is the edge the
// subtree's result reports through, nil at the root. A leaf (or a
// childless machine) completes synchronously on the caller's stack — no
// walk objects; the rest of the walk runs on slab-pooled
// epochNode/epochEdge objects, one per live tree node and edge, so an
// epoch costs no per-message closures.
//
//lbvet:hotpath
func (rd *round) startEpoch(vsa bool, n *ktree.Node, parent *epochEdge) {
	// One chase through Host.Owner serves the aliveness check and the
	// endpoint index; the parent's edge already resolved ours.
	owner := n.Host.Owner
	if !owner.Alive {
		return // a dead KT node never replies
	}
	ni := owner.Index
	if parent != nil {
		ni = parent.chi
	}
	col := lbnode.NewEpoch[*epochEdge](len(n.Children))
	if col.Done() {
		rd.closeEpoch(vsa, n, &col, parent)
		return
	}
	nd := slabAlloc(&rd.epochNodes)
	nd.rd, nd.n, nd.ni, nd.vsa, nd.col, nd.parent = rd, n, ni, vsa, col, parent
	nd.expireEv.nd = nd
	kind := MsgCollectDown
	if vsa {
		kind = MsgVSADown
	}
	for ci, c := range n.Children {
		e := slabAlloc(&rd.epochEdges)
		e.nd, e.c, e.ci, e.chi = nd, c, ci, hostIdx(c)
		e.edge = rd.r.tree.EdgeLatency(c)
		e.down.e, e.up.e = e, e
		// Both directions are acked and retransmitted: a lost pull would
		// silence the child's whole subtree, compounding per level, so
		// the epoch timeout is reserved for genuinely dead subtrees.
		// The reply is buffered exactly once (receiver dedup).
		rd.reliableEv(kind, ni, e.chi, e.edge, &e.down)
	}
	// The epoch timer is canceled the moment the last child replies —
	// on a healthy tree no epoch timer ever fires.
	nd.expire = rd.r.eng.AfterEv(rd.epochWindow(n), &nd.expireEv)
}

// ownList returns n's own VSA contribution, the list its epoch folds
// into: the advertisement inbox, or an empty list when nothing was
// deposited there. Advertisements land only at leaves, which close the
// moment they start, so reading it when an epoch closes sees exactly
// what was deposited before the sweep began.
func (rd *round) ownList(n *ktree.Node) *core.PairList {
	if pl := rd.vsaInbox[n]; pl != nil {
		return pl
	}
	return &core.PairList{}
}

// closeEpoch folds n's closed epoch and routes the result: the LBI
// aggregate goes up the parent edge, or at the root into
// dissemination; the VSA list first pairs at a rendezvous point, then
// its unpaired rest goes up the parent edge, or at the root ends the
// sweep.
//
//lbvet:hotpath
func (rd *round) closeEpoch(vsa bool, n *ktree.Node, col *lbnode.Epoch[*epochEdge], parent *epochEdge) {
	kind := MsgReportUp
	if vsa {
		list := lbnode.Fold(col, rd.ownList(n), mergeList)
		for _, p := range lbnode.Rendezvous(list, parent == nil, rd.cfg().RendezvousThreshold, rd.global.Lmin) {
			rd.emitPair(n, p)
		}
		if parent == nil {
			rd.vsaSwept(list)
			return
		}
		parent.list, kind = list, MsgVSAUp
	} else {
		agg := lbnode.Fold(col, lbnode.LocalLBI(rd.lbiInbox[n]), mergeLBI)
		if parent == nil {
			rd.lbiAggregated(agg)
			return
		}
		parent.lbi = agg
	}
	rd.reliableEv(kind, parent.chi, parent.nd.ni, parent.edge, &parent.up)
}

type epochDown struct{ e *epochEdge }

// HandleMsg: the downward pull reached the child — start its epoch.
//
//lbvet:hotpath
func (d *epochDown) HandleMsg() bool {
	e := d.e
	e.nd.rd.startEpoch(e.nd.vsa, e.c, e)
	return true
}

func (d *epochDown) SettleMsg(bool) {}

type epochUp struct{ e *epochEdge }

// HandleMsg: the child subtree's reply reached the parent. A reply
// after the epoch closed is absorbed by the machine — still acked so
// the child stops resending. Replies are buffered under their child
// index, so the fold order (and the LBI global's float bits) is the
// same no matter when each subtree answers.
//
//lbvet:hotpath
func (u *epochUp) HandleMsg() bool {
	e := u.e
	nd := e.nd
	if nd.col.ChildReply(e.ci, e) {
		nd.rd.r.eng.Cancel(nd.expire)
		nd.rd.closeEpoch(nd.vsa, nd.n, &nd.col, nd.parent)
	}
	return true
}

func (u *epochUp) SettleMsg(bool) {}

// epochExpire fires the epoch timeout: give up on the silent children
// and report what arrived.
type epochExpire struct{ nd *epochNode }

func (x *epochExpire) RunEvent() {
	nd := x.nd
	if timedOut, expired := nd.col.Expire(); expired {
		nd.rd.res.TimedOutChildren += timedOut
		nd.rd.closeEpoch(nd.vsa, nd.n, &nd.col, nd.parent)
	}
}

// disseminate pushes the global tuple down the tree; each leaf delivery
// classifies its host's owner node (once) and triggers publication.
// Downward copies are acked and retransmitted: losing one would
// silently leave a whole subtree unclassified for the round, a much
// worse failure than the extra ack traffic. The publishing counter is
// settled on the sender side — exactly once per edge, whether the copy
// landed (ack) or the retries ran dry — so the VSA epoch always starts.
func (rd *round) disseminate(n *ktree.Node) {
	rd.publishing++ // guards VSA start until this subtree finishes
	rd.dispWalk(n)
	rd.publishDone()
}

// dispWalk delivers the global tuple to n and pushes it on to n's
// children over slab-pooled per-edge handlers.
//
//lbvet:hotpath
func (rd *round) dispWalk(n *ktree.Node) {
	owner := n.Host.Owner
	if !owner.Alive {
		return
	}
	if n.IsLeaf() {
		rd.classifyAndPublish(owner)
		return
	}
	ni := owner.Index
	for _, c := range n.Children {
		e := slabAlloc(&rd.dispEdges)
		e.rd, e.c = rd, c
		rd.publishing++
		rd.reliableEv(MsgDisperse, ni, hostIdx(c), rd.r.tree.EdgeLatency(c), e)
	}
}

// dispEdge is one downward dissemination hop: the arriving copy
// continues the walk below c; settling (acked or drained) releases the
// publishing guard.
type dispEdge struct {
	rd *round
	c  *ktree.Node
}

//lbvet:hotpath
func (e *dispEdge) HandleMsg() bool {
	e.rd.dispWalk(e.c)
	return true
}

func (e *dispEdge) SettleMsg(bool) { e.rd.publishDone() }

// classifyAndPublish runs classification on a node the first time the
// global tuple reaches it (the roster machine absorbs duplicates), and
// publishes its VSA information.
func (rd *round) classifyAndPublish(node *chord.Node) {
	st, ok := rd.roster.Classify(node, rd.global, rd.cfg().Epsilon, rd.cfg().Subset)
	if !ok {
		return
	}
	rd.res.NodesClassified++
	if t := rd.r.eng.Now() - rd.start; t > rd.res.TimeLBIDisseminate {
		rd.res.TimeLBIDisseminate = t
	}
	if st.Class == core.Neutral {
		return
	}
	eng := rd.r.eng
	switch rd.cfg().Mode {
	case core.ProximityIgnorant:
		// The advertisement leaf was drawn in the placement pre-pass —
		// not here at event time — so it does not depend on the order in
		// which the global tuple reaches the nodes.
		if leaf, ok := rd.place.VSALeaf[node]; ok {
			rd.depositAt(leaf, st, 0)
		}
	case core.ProximityAware:
		key := rd.cfg().Mapper.Key(node.Underlay)
		group := uint64(key)
		if cm, ok := rd.cfg().Mapper.(core.CellMapper); ok {
			group = cm.Cell(node.Underlay)
		}
		// Routed publication: the advertisement travels through the
		// overlay to the key's owner.
		rd.publishing++
		lookup := rd.r.ring.Lookup
		if rd.r.cfg.PrefixRouting {
			lookup = rd.r.ring.PrefixLookup
		}
		lookup(node, key, func(res chord.LookupResult) {
			eng.CountMessage(MsgPublish, 1)
			rd.deposit(res.VS, st, group)
			if t := rd.r.eng.Now() - rd.start; t > rd.res.TimePublish {
				rd.res.TimePublish = t
			}
			rd.publishDone()
		})
	}
}

func (rd *round) cfg() core.Config { return rd.r.cfg.Core }

// deposit stores a node's VSA entries at the given virtual server's
// reporting leaf.
func (rd *round) deposit(vs *chord.VServer, st *core.NodeState, group uint64) {
	leaf := rd.leafFor(vs)
	if leaf == nil {
		return // fresh joiner: the advertisement waits for the next round
	}
	rd.depositAt(leaf, st, group)
}

// depositAt stores a node's VSA entries at an already-resolved leaf.
func (rd *round) depositAt(leaf *ktree.Node, st *core.NodeState, group uint64) {
	pl := rd.vsaInbox[leaf]
	if pl == nil {
		pl = &core.PairList{}
		rd.vsaInbox[leaf] = pl
	}
	lbnode.DepositVSA(pl, st, group)
}

// publishDone decrements the outstanding-publication counter; at zero,
// every advertisement has landed and the VSA epoch begins.
func (rd *round) publishDone() {
	rd.publishing--
	if rd.publishing > 0 {
		return
	}
	rd.startVSA()
}

// startVSA runs the VSA converge-cast from the root.
func (rd *round) startVSA() {
	rd.res.HeavyBefore, rd.res.LightBefore, rd.res.NeutralBefore = rd.roster.Census()

	rd.startEpoch(true, rd.r.tree.Root(), nil)
}

// vsaSwept records what the root's VSA epoch left unpaired.
func (rd *round) vsaSwept(left *core.PairList) {
	rd.res.TimeVSAComplete = rd.r.eng.Now() - rd.start
	rd.res.UnassignedOffers = left.Offers()
	rd.res.UnassignedLoad = left.OfferLoad()
	rd.vsaDone = true
	rd.maybeFinish()
}

// emitPair sends the pairing to both endpoints and starts the two-phase
// handoff. The heavy endpoint's notification is reliable (it drives the
// transfer); the light endpoint's copy is informational — the prepare
// phase re-validates the receiver — so it rides an unreliable send.
func (rd *round) emitPair(rendezvous *ktree.Node, p core.Pair) {
	eng := rd.r.eng
	host := rendezvous.Host.Owner
	costFrom := rd.r.ring.Latency(host, p.From) + 1
	costTo := rd.r.ring.Latency(host, p.To) + 1
	rd.outstandingTransfers++
	h := &handoff{rd: rd, rendezvous: rendezvous, m: lbnode.NewHandoff(p), assignedAt: eng.Now() - rd.start}
	h.assign.h, h.prep.h, h.commitH.h = h, h, h
	eng.Deliver(MsgAssign, host.Index, p.To.Index, costTo, func() {})
	rd.reliableEv(MsgAssign, host.Index, p.From.Index, costFrom, &h.assign)
}

// handoff drives one lbnode.Handoff machine — the two-phase
// virtual-server transfer for one pairing — over the reliable-delivery
// transport. The machine owns the phase logic (validate, reserve,
// exactly-once commit, abort); this wrapper owns delivery, retries and
// the round's accounting. Each handoff settles exactly once (PhaseDone
// or PhaseAborted), releasing the round's outstanding-transfer slot.
type handoff struct {
	rd         *round
	rendezvous *ktree.Node
	m          *lbnode.Handoff
	assignedAt sim.Time
	cost       sim.Time // heavy → light latency, fixed at prepare time

	// The three phases' reliable-exchange handler roles, embedded so a
	// handoff costs one allocation total (see rhandler).
	assign  assignH
	prep    prepareH
	commitH commitH
}

// assignH: the rendezvous→heavy assignment message.
type assignH struct{ h *handoff }

func (a *assignH) HandleMsg() bool {
	// ack=false models a dead heavy endpoint: silent, no ack.
	ack, op := a.h.m.AssignReceived()
	a.h.apply(op)
	return ack
}

func (a *assignH) SettleMsg(ok bool) {
	if !ok {
		a.h.apply(a.h.m.Fail())
	}
}

// prepareH: the heavy→light reservation. Acceptance (the machine, while
// the receiver is alive and the pairing unsettled) is the ack; a dead
// receiver is silent and the sender's retries drain into an abort.
type prepareH struct{ h *handoff }

func (pr *prepareH) HandleMsg() bool { return pr.h.m.PrepareReceived() }

func (pr *prepareH) SettleMsg(ok bool) {
	if !ok {
		pr.h.apply(pr.h.m.Fail())
		return
	}
	pr.h.apply(pr.h.m.PrepareAcked())
}

// commitH: the heavy→light VS shipment. The FIRST commit copy the
// machine accepts applies ring.Transfer — the dedup set plus the
// machine's exactly-once contract make duplicated or retransmitted
// commits idempotent, so the VS is moved exactly once and never
// double-hosted.
type commitH struct{ h *handoff }

func (c *commitH) HandleMsg() bool {
	if !c.h.m.TransferReceived() {
		return false
	}
	c.h.complete()
	return true
}

func (c *commitH) SettleMsg(ok bool) {
	if !ok {
		c.h.apply(c.h.m.Fail())
	}
}

// apply performs the outgoing action a machine transition requested.
func (h *handoff) apply(op lbnode.HandoffOp) {
	switch op {
	case lbnode.OpPrepare:
		h.prepare()
	case lbnode.OpCommit:
		h.commit()
	case lbnode.OpAbort:
		h.rd.res.AbortedTransfers++
		h.rd.transferDone()
	}
}

// prepare sends the reservation heavy → light.
func (h *handoff) prepare() {
	p := h.m.Pair
	h.cost = h.rd.r.ring.Latency(p.From, p.To) + 1
	h.rd.reliableEv(MsgPrepare, p.From.Index, p.To.Index, h.cost, &h.prep)
}

// commit ships the VS once the reservation is acknowledged.
func (h *handoff) commit() {
	p := h.m.Pair
	h.rd.reliableEv(MsgTransfer, p.From.Index, p.To.Index, h.cost, &h.commitH)
}

// complete applies the transfer at the receiver on the commit copy the
// machine accepted — the single point where ring state changes hands.
func (h *handoff) complete() {
	rd := h.rd
	p := h.m.Pair
	rd.r.ring.Transfer(p.VS, p.To)
	hops := rd.transferCost(p.From, p.To)
	rd.res.Assignments = append(rd.res.Assignments, core.Assignment{
		VS: p.VS, From: p.From, To: p.To, Load: p.Load,
		Hops: hops, AssignedAt: h.assignedAt, Depth: h.rendezvous.Depth,
	})
	rd.res.MovedLoad += p.Load
	rd.res.MovedByHops.Add(hops, p.Load)
	if t := rd.r.eng.Now() - rd.start; t > rd.res.TimeVSTComplete {
		rd.res.TimeVSTComplete = t
	}
	rd.transferDone()
}

func (rd *round) transferCost(from, to *chord.Node) int {
	if tc := rd.cfg().TransferCost; tc != nil {
		return tc(from, to)
	}
	return int(rd.r.ring.Latency(from, to))
}

func (rd *round) transferDone() {
	rd.outstandingTransfers--
	rd.maybeFinish()
}

// maybeFinish closes the round when the VSA sweep and every transfer
// have completed: final census, lazy KT migration (tree repair), and
// the caller's completion callback.
func (rd *round) maybeFinish() {
	if !rd.vsaDone || rd.outstandingTransfers > 0 {
		return
	}
	rd.res.HeavyAfter, rd.res.LightAfter, rd.res.NeutralAfter =
		lbnode.Census(rd.r.ring.Nodes(), rd.global, rd.cfg().Epsilon, rd.cfg().Subset)
	if _, err := rd.r.tree.Repair(); err != nil {
		rd.done(nil, err)
		return
	}
	rd.done(rd.res, nil)
}
