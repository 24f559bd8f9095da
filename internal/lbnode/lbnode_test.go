// External-package tests: lbnode's own test fixtures are free to build
// rings and engines, which the layercheck analyzer forbids inside the
// package itself.
package lbnode_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/lbnode"
	"p2plb/internal/sim"
)

// lbi builds a valid LBI report <sum(loads), capacity, min(loads)>
// through a throwaway one-node ring (the ok flag inside core.LBI is
// deliberately unexported).
func lbi(capacity float64, loads ...float64) core.LBI {
	ring := chord.NewRing(sim.NewEngine(1), chord.Config{})
	n := ring.AddNode(-1, capacity, len(loads))
	for i, vs := range n.VServers() {
		vs.Load = loads[i]
	}
	return core.NodeLBI(n)
}

// sweepPayload is one sweep's payload for the epoch test: the node's
// own contribution and three child replies (built fresh on every call —
// a VSA fold consumes its lists), the fold step, and a canonical
// rendering of a folded result.
type sweepPayload[T any] struct {
	own     func() T
	replies func() []T
	merge   func(acc, sub T) T
	render  func(T) string
}

// lbiPayload's loads sum to different float bits in different orders
// ((0.1+0.2)+0.3 != 0.1+(0.2+0.3)), so a fold that followed arrival
// order would fail the permutation case; render prints the exact bits.
var lbiPayload = sweepPayload[core.LBI]{
	own: func() core.LBI { return lbnode.LocalLBI([]core.LBI{lbi(1, 0.7)}) },
	replies: func() []core.LBI {
		return []core.LBI{lbi(1, 0.1), lbi(2, 0.2), lbi(4, 0.3)}
	},
	merge: core.LBI.Merge,
	render: func(l core.LBI) string {
		return fmt.Sprintf("%x %x %x", math.Float64bits(l.L), math.Float64bits(l.C), math.Float64bits(l.Lmin))
	},
}

// vsaPayload renders a folded list as the pair set root rendezvous
// emits from it plus what stays unpaired.
var vsaPayload = sweepPayload[*core.PairList]{
	own: func() *core.PairList {
		pl := &core.PairList{}
		pl.AddLight(10, &chord.Node{Index: 9, Alive: true}, 0)
		return pl
	},
	replies: func() []*core.PairList {
		offer := func(pl *core.PairList, node int, id ident.ID, load float64) {
			n := &chord.Node{Index: node, Alive: true}
			pl.AddOffer(&chord.VServer{ID: id, Owner: n, Load: load}, n, 0)
		}
		a, b, c := &core.PairList{}, &core.PairList{}, &core.PairList{}
		offer(a, 0, 100, 3)
		b.AddLight(4, &chord.Node{Index: 1, Alive: true}, 0)
		offer(b, 2, 200, 2)
		offer(c, 3, 300, 5)
		offer(c, 3, 301, 4)
		return []*core.PairList{a, b, c}
	},
	merge: (*core.PairList).Merge,
	render: func(pl *core.PairList) string {
		var out []string
		for _, p := range lbnode.Rendezvous(pl, true, 0, 0.5) {
			out = append(out, fmt.Sprintf("%d:%d>%d", p.VS.ID, p.From.Index, p.To.Index))
		}
		sort.Strings(out)
		return fmt.Sprintf("%v +%d lights +%d offers", out, pl.Lights(), pl.Offers())
	},
}

// TestEpoch drives the converge-cast machine over both sweeps'
// payloads through every lifecycle edge an executor can produce.
func TestEpoch(t *testing.T) {
	t.Run("lbi", func(t *testing.T) {
		testEpoch(t, lbiPayload)
		// Deposited reports merge into the own contribution: loads and
		// capacities add, Lmin is the smaller.
		if l := lbnode.LocalLBI([]core.LBI{lbi(2, 5, 5), lbi(1, 3, 3)}); l.L != 16 || l.C != 3 || l.Lmin != 3 {
			t.Errorf("LocalLBI = %+v, want L=16 C=3 Lmin=3", l)
		}
	})
	t.Run("vsa", func(t *testing.T) { testEpoch(t, vsaPayload) })
}

func testEpoch[T any](t *testing.T, p sweepPayload[T]) {
	// want folds own and the replies at the given indexes in index order.
	want := func(idxs ...int) string {
		acc, subs := p.own(), p.replies()
		for _, i := range idxs {
			acc = p.merge(acc, subs[i])
		}
		return p.render(acc)
	}
	fold := func(e *lbnode.Epoch[T]) string { return p.render(lbnode.Fold(e, p.own(), p.merge)) }

	t.Run("leaf completes immediately", func(t *testing.T) {
		e := lbnode.NewEpoch[T](0)
		if !e.Done() {
			t.Fatal("childless epoch should be complete at construction")
		}
		if _, expired := e.Expire(); expired {
			t.Error("Expire on a leaf epoch claimed to expire it")
		}
		if got := fold(&e); got != want() {
			t.Errorf("leaf fold = %s, want own %s", got, want())
		}
	})

	t.Run("duplicate index absorbed", func(t *testing.T) {
		e := lbnode.NewEpoch[T](2)
		subs, other := p.replies(), p.replies()
		if e.ChildReply(1, subs[1]) {
			t.Fatal("first of two replies completed the epoch")
		}
		if e.ChildReply(1, other[2]) {
			t.Fatal("duplicate reply completed the epoch")
		}
		if e.Done() {
			t.Fatal("duplicate reply closed the epoch")
		}
		if !e.ChildReply(0, subs[0]) {
			t.Fatal("last reply did not complete the epoch")
		}
		if got := fold(&e); got != want(0, 1) {
			t.Errorf("fold = %s, want %s", got, want(0, 1))
		}
	})

	t.Run("reply after close absorbed", func(t *testing.T) {
		e := lbnode.NewEpoch[T](3)
		subs := p.replies()
		e.ChildReply(2, subs[2])
		if timedOut, expired := e.Expire(); !expired || timedOut != 2 {
			t.Fatalf("Expire = (%d, %v), want (2, true)", timedOut, expired)
		}
		if !e.Done() {
			t.Fatal("expired epoch should be closed")
		}
		if e.ChildReply(0, subs[0]) {
			t.Error("reply after expiry reported completion")
		}
		if got := fold(&e); got != want(2) {
			t.Errorf("partial fold = %s, want only the reply that arrived in time: %s", got, want(2))
		}
	})

	t.Run("expire after close", func(t *testing.T) {
		e := lbnode.NewEpoch[T](1)
		e.ChildReply(0, p.replies()[0])
		if timedOut, expired := e.Expire(); expired || timedOut != 0 {
			t.Errorf("Expire on a completed epoch = (%d, %v), want (0, false)", timedOut, expired)
		}
	})

	t.Run("every arrival permutation", func(t *testing.T) {
		for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			e := lbnode.NewEpoch[T](3)
			subs := p.replies()
			for k, idx := range perm {
				if done := e.ChildReply(idx, subs[idx]); done != (k == 2) {
					t.Fatalf("order %v: reply %d reported done=%v", perm, k, done)
				}
			}
			if got := fold(&e); got != want(0, 1, 2) {
				t.Errorf("order %v: fold = %s, want %s", perm, got, want(0, 1, 2))
			}
		}
	})
}

// The three tests below pin the concrete values a sweep's epoch yields,
// where TestEpoch only compares a fold against a reference fold over
// the same merge step.

func TestLBICollectLifecycle(t *testing.T) {
	local := lbnode.LocalLBI([]core.LBI{lbi(2, 5, 5), lbi(1, 3, 3)}) // L=10 Lmin=5; L=6 Lmin=3
	col := lbnode.NewEpoch[core.LBI](2)
	aggregate := func() core.LBI { return lbnode.Fold(&col, local, core.LBI.Merge) }
	if col.Done() {
		t.Fatal("epoch with pending children closed early")
	}
	// Replies arrive out of child order; the machine buffers them and
	// folds in index order.
	if done := col.ChildReply(1, lbi(1, 2, 2)); done { // L=4 Lmin=2
		t.Fatal("first of two replies completed the epoch")
	}
	// A duplicate for an already-answered index is absorbed.
	if done := col.ChildReply(1, lbi(50, 50)); done {
		t.Fatal("duplicate reply completed the epoch")
	}
	if done := col.ChildReply(0, lbi(2, 1, 7)); !done { // L=8 Lmin=1
		t.Fatal("last reply did not complete the epoch")
	}
	agg := aggregate()
	if agg.L != 28 || agg.C != 6 || agg.Lmin != 1 {
		t.Fatalf("aggregate = %+v, want L=28 C=6 Lmin=1", agg)
	}
	// Replies after the close are absorbed; the expiry timer lost.
	if col.ChildReply(0, lbi(100, 100)) {
		t.Error("reply after close reported completion")
	}
	if agg := aggregate(); agg.L != 28 {
		t.Errorf("late reply mutated the aggregate: %+v", agg)
	}
	if _, expired := col.Expire(); expired {
		t.Error("Expire on a completed epoch claimed to expire it")
	}
}

func TestLBICollectLeafAndExpiry(t *testing.T) {
	leaf := lbnode.NewEpoch[core.LBI](0)
	if !leaf.Done() {
		t.Fatal("childless epoch should be complete at construction")
	}
	if agg := lbnode.Fold(&leaf, lbnode.LocalLBI([]core.LBI{lbi(1, 3)}), core.LBI.Merge); agg.L != 3 {
		t.Errorf("leaf aggregate = %+v, want its own report", agg)
	}
	col := lbnode.NewEpoch[core.LBI](3)
	col.ChildReply(2, lbi(1, 1))
	timedOut, expired := col.Expire()
	if !expired || timedOut != 2 {
		t.Fatalf("Expire = (%d, %v), want (2, true)", timedOut, expired)
	}
	if !col.Done() {
		t.Error("expired epoch should be closed")
	}
	if agg := lbnode.Fold(&col, lbnode.LocalLBI(nil), core.LBI.Merge); agg.L != 1 {
		t.Errorf("partial aggregate = %+v, want the one reply that arrived", agg)
	}
	if col.ChildReply(0, lbi(9, 9)) {
		t.Error("reply after expiry reported completion")
	}
}

func TestVSACollectEpoch(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	sub := &core.PairList{}
	sub.AddOffer(&chord.VServer{Owner: heavy, Load: 2}, heavy, 0)
	col := lbnode.NewEpoch[*core.PairList](2)
	if col.Done() {
		t.Fatal("pending epoch closed early")
	}
	if col.ChildReply(0, sub) {
		t.Fatal("first of two replies completed the epoch")
	}
	timedOut, expired := col.Expire()
	if !expired || timedOut != 1 {
		t.Fatalf("Expire = (%d, %v), want (1, true)", timedOut, expired)
	}
	late := &core.PairList{}
	late.AddLight(3, heavy, 0)
	if col.ChildReply(1, late) {
		t.Error("reply after expiry reported completion")
	}
	// The fold absorbs the buffered lists, so it runs once, after the
	// late reply had its chance to slip in.
	if n := lbnode.Fold(&col, &core.PairList{}, (*core.PairList).Merge).Size(); n != 1 {
		t.Fatalf("partial epoch holds %d entries, want 1: the late reply merged into a closed epoch", n)
	}
}

func TestVSACollectRendezvousRules(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	light := &chord.Node{Index: 1, Alive: true}
	mkList := func(entries int) *core.PairList {
		pl := &core.PairList{}
		for i := 0; i < entries; i++ {
			vs := &chord.VServer{Owner: heavy, Load: 4}
			pl.AddOffer(vs, heavy, 0)
			pl.AddLight(5, light, 0)
		}
		return pl
	}

	// Below threshold, not root: hold everything.
	pl := mkList(2)
	if pairs := lbnode.Rendezvous(pl, false, 30, 0.1); pairs != nil {
		t.Fatalf("below-threshold rendezvous paired %d", len(pairs))
	}
	if pl.Size() != 4 {
		t.Fatalf("held size = %d, want 4", pl.Size())
	}

	// Threshold reached at a non-root node: pair.
	if pairs := lbnode.Rendezvous(mkList(2), false, 4, 0.1); len(pairs) == 0 {
		t.Fatal("threshold-reached rendezvous paired nothing")
	}

	// The root always pairs, and zero threshold means the default.
	if pairs := lbnode.Rendezvous(mkList(1), true, 0, 0.1); len(pairs) == 0 {
		t.Fatal("root rendezvous paired nothing")
	}

	// Negative threshold: only the root pairs.
	if pairs := lbnode.Rendezvous(mkList(20), false, -1, 0.1); pairs != nil {
		t.Fatal("negative threshold paired at a non-root node")
	}

	// An empty epoch never pairs, even at the root.
	if pairs := lbnode.Rendezvous(&core.PairList{}, true, 0, 0.1); pairs != nil {
		t.Fatal("empty root epoch paired")
	}
}

func TestRosterClassifiesOnce(t *testing.T) {
	global := lbi(10, 50, 50) // L=100 C=10 Lmin=50
	n := &chord.Node{Alive: true, Capacity: 1}
	dead := &chord.Node{Alive: false, Capacity: 1}
	ro := lbnode.NewRoster(nil)
	st, ok := ro.Classify(n, global, 0, core.SubsetAuto)
	if !ok || st == nil {
		t.Fatal("first delivery did not classify")
	}
	if _, ok := ro.Classify(n, global, 0, core.SubsetAuto); ok {
		t.Error("duplicate delivery classified again")
	}
	if _, ok := ro.Classify(dead, global, 0, core.SubsetAuto); ok {
		t.Error("dead node classified")
	}
	h, l, u := ro.Census()
	if h+l+u != 1 {
		t.Errorf("census = %d/%d/%d, want exactly one node", h, l, u)
	}
}

func handoffFixture() (*lbnode.Handoff, *chord.Node, *chord.Node, *chord.VServer) {
	from := &chord.Node{Index: 0, Alive: true}
	to := &chord.Node{Index: 1, Alive: true}
	vs := &chord.VServer{Owner: from, Load: 7}
	return lbnode.NewHandoff(core.Pair{VS: vs, From: from, To: to, Load: vs.Load}), from, to, vs
}

func TestHandoffHappyPath(t *testing.T) {
	h, _, _, _ := handoffFixture()
	ack, op := h.AssignReceived()
	if !ack || op != lbnode.OpPrepare {
		t.Fatalf("assign = (%v, %v), want (true, OpPrepare)", ack, op)
	}
	if h.Phase() != lbnode.PhasePreparing {
		t.Fatalf("phase = %v, want PhasePreparing", h.Phase())
	}
	if !h.PrepareReceived() {
		t.Fatal("live receiver rejected the reservation")
	}
	if op := h.PrepareAcked(); op != lbnode.OpCommit {
		t.Fatalf("prepare-ack op = %v, want OpCommit", op)
	}
	if !h.TransferReceived() {
		t.Fatal("first commit copy rejected")
	}
	if h.Phase() != lbnode.PhaseDone || !h.Settled() {
		t.Fatalf("phase = %v, want PhaseDone", h.Phase())
	}
	// Exactly-once: a duplicated or retransmitted commit is refused.
	if h.TransferReceived() {
		t.Error("duplicate commit copy accepted")
	}
	// And a late failure signal cannot un-settle the transfer.
	if op := h.Fail(); op != lbnode.OpNone {
		t.Errorf("Fail after Done = %v, want OpNone", op)
	}
}

func TestHandoffDeadEndpoints(t *testing.T) {
	// A dead heavy endpoint is silent: no ack at all.
	h, from, _, _ := handoffFixture()
	from.Alive = false
	if ack, op := h.AssignReceived(); ack || op != lbnode.OpNone {
		t.Fatalf("dead From: assign = (%v, %v), want (false, OpNone)", ack, op)
	}

	// A dead light endpoint aborts at validation.
	h, _, to, _ := handoffFixture()
	to.Alive = false
	if ack, op := h.AssignReceived(); !ack || op != lbnode.OpAbort {
		t.Fatalf("dead To: assign = (%v, %v), want (true, OpAbort)", ack, op)
	}
	if h.Phase() != lbnode.PhaseAborted {
		t.Fatalf("phase = %v, want PhaseAborted", h.Phase())
	}

	// A VS that changed owner before the assignment arrived aborts.
	h, _, _, vs := handoffFixture()
	vs.Owner = &chord.Node{Index: 9, Alive: true}
	if _, op := h.AssignReceived(); op != lbnode.OpAbort {
		t.Fatalf("moved VS: op = %v, want OpAbort", op)
	}
}

func TestHandoffMidFlightFailures(t *testing.T) {
	// Retry exhaustion in the prepare phase aborts.
	h, _, _, _ := handoffFixture()
	h.AssignReceived()
	if op := h.Fail(); op != lbnode.OpAbort {
		t.Fatalf("prepare failure = %v, want OpAbort", op)
	}
	if op := h.Fail(); op != lbnode.OpNone {
		t.Errorf("second failure = %v, want OpNone (already settled)", op)
	}

	// The receiver refuses reservations once the pairing settled.
	if h.PrepareReceived() {
		t.Error("aborted handoff accepted a reservation")
	}

	// Sender loses the VS between prepare and commit.
	h, _, _, vs := handoffFixture()
	h.AssignReceived()
	vs.Owner = &chord.Node{Index: 9, Alive: true}
	if op := h.PrepareAcked(); op != lbnode.OpAbort {
		t.Fatalf("lost VS at commit = %v, want OpAbort", op)
	}

	// Receiver dies before the commit copy lands: the copy is refused
	// (silent), so the sender's retries will drain into an abort.
	h, _, to, _ := handoffFixture()
	h.AssignReceived()
	h.PrepareAcked()
	to.Alive = false
	if h.TransferReceived() {
		t.Error("commit accepted at a dead receiver")
	}
	if op := h.Fail(); op != lbnode.OpAbort {
		t.Fatalf("commit failure = %v, want OpAbort", op)
	}
}

func TestDepositVSA(t *testing.T) {
	heavy := &chord.Node{Index: 0, Alive: true}
	offers := []*chord.VServer{
		{Owner: heavy, Load: 3},
		{Owner: heavy, Load: 4},
	}
	pl := &core.PairList{}
	lbnode.DepositVSA(pl, &core.NodeState{Node: heavy, Class: core.Heavy, Offers: offers}, 0)
	if pl.Offers() != 2 || pl.OfferLoad() != 7 {
		t.Fatalf("heavy deposit: %d offers, load %.1f; want 2, 7", pl.Offers(), pl.OfferLoad())
	}
	light := &chord.Node{Index: 1, Alive: true}
	lbnode.DepositVSA(pl, &core.NodeState{Node: light, Class: core.Light, Deficit: 5}, 0)
	if pl.Lights() != 1 {
		t.Fatalf("light deposit: %d lights, want 1", pl.Lights())
	}
	lbnode.DepositVSA(pl, &core.NodeState{Node: light, Class: core.Neutral}, 0)
	if pl.Size() != 3 {
		t.Fatalf("neutral deposit changed the list: size %d, want 3", pl.Size())
	}
}

func TestTally(t *testing.T) {
	states := []*core.NodeState{
		{Class: core.Heavy}, {Class: core.Light}, {Class: core.Light},
		{Class: core.Neutral}, nil,
	}
	h, l, n := lbnode.Tally(states)
	if h != 1 || l != 2 || n != 1 {
		t.Fatalf("Tally = %d/%d/%d, want 1/2/1", h, l, n)
	}
}
