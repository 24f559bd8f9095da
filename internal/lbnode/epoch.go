package lbnode

import "p2plb/internal/core"

// Epoch is one KT node's converge-cast epoch, the machine both of the
// paper's bottom-up sweeps run on: LBI aggregation (§3.2) folds
// core.LBI tuples, the VSA sweep (§3.4) folds *core.PairList
// advertisement lists. Each child subtree's reply is buffered under its
// child index as it arrives, and the epoch closes exactly once — when
// the last child replies, or when the executor's timer expires it with
// partial data. A second reply for an answered index, or any reply
// after the close, is absorbed without effect (the executor still
// acknowledges it so the sender stops retransmitting).
//
// Buffering instead of merging on arrival makes the result
// executor-independent: Fold merges the node's own contribution first,
// then the replies in child-index order, no matter in which order they
// physically arrived. LBI merging adds floats, so the sim executor
// (replies land in message order), the concurrent executor (completion
// order) and the cluster daemons (network order) all produce the
// bit-identical global tuple. For VSA the order does not change the
// pairing — PairList.Pair sorts by a total order — but buffering lets a
// reply wait for the node's own list, which only exists once the global
// tuple has arrived.
type Epoch[T any] struct {
	slots   []slot[T]
	pending int
	closed  bool
}

// slot is one child's buffered reply; got marks that it arrived.
type slot[T any] struct {
	sub T
	got bool
}

// NewEpoch starts an epoch over the number of child subtrees the node
// will query. With no children (a leaf, or an internal node whose slots
// are all empty) the epoch is complete immediately. It returns a value
// so executors can embed the machine in their own walk objects, or keep
// a leaf's epoch on the stack, instead of a heap allocation per node.
func NewEpoch[T any](children int) Epoch[T] {
	e := Epoch[T]{pending: children, closed: children == 0}
	if children > 0 {
		e.slots = make([]slot[T], children)
	}
	return e
}

// ChildReply buffers the reply of the child subtree at index idx. It
// returns true when this reply completes the epoch; a reply after the
// epoch closed, or a duplicate for an index already answered, is
// absorbed and returns false.
func (e *Epoch[T]) ChildReply(idx int, sub T) bool {
	if e.closed || e.slots[idx].got {
		return false
	}
	e.slots[idx] = slot[T]{sub: sub, got: true}
	e.pending--
	e.closed = e.pending == 0
	return e.closed
}

// Expire closes a still-open epoch with partial data, returning how
// many children never replied. An already-closed epoch reports
// (0, false) — the timer lost the race and must not act.
func (e *Epoch[T]) Expire() (timedOut int, expired bool) {
	if e.closed {
		return 0, false
	}
	e.closed = true
	return e.pending, true
}

// Done reports whether the epoch has closed.
func (e *Epoch[T]) Done() bool { return e.closed }

// Fold merges the node's own contribution with e's buffered replies in
// child-index order (children that never replied, after an expiry, are
// skipped) and returns the result the node reports upward. Meaningful
// once the epoch closed. The accumulator may differ from the buffered
// type, so an executor can buffer a handle to where a reply lives. The
// LBI merge is pure, so an LBI epoch may be folded again;
// PairList.Merge absorbs into own, so a VSA epoch is folded once.
func Fold[T, A any](e *Epoch[T], own A, merge func(acc A, sub T) A) A {
	for _, s := range e.slots {
		if s.got {
			own = merge(own, s.sub)
		}
	}
	return own
}

// LocalLBI merges a KT node's deposited reports in deposit order — the
// own contribution an LBI epoch folds first.
func LocalLBI(reports []core.LBI) core.LBI {
	var local core.LBI
	for _, rep := range reports {
		local = local.Merge(rep)
	}
	return local
}

// Rendezvous runs the §3.4 rendezvous rule on a closed VSA epoch's
// folded list: a node pairs when it holds any entries and is the root,
// or its combined list length reaches the threshold (zero means the
// paper's default of 30; negative disables intermediate rendezvous so
// pairing happens only at the root). It returns the emitted pairings;
// unpaired entries stay in lists, which then flows to the parent.
func Rendezvous(lists *core.PairList, isRoot bool, threshold int, lmin float64) []core.Pair {
	if threshold == 0 {
		threshold = core.DefaultRendezvousThreshold
	}
	if lists.Size() > 0 && (isRoot || (threshold > 0 && lists.Size() >= threshold)) {
		return lists.Pair(lmin)
	}
	return nil
}
