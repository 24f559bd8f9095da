package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"sync"

	"p2plb/internal/chord"
	"p2plb/internal/core"
	"p2plb/internal/ident"
	"p2plb/internal/lbnode"
	"p2plb/internal/metrics"
	"p2plb/internal/wire"
)

// DaemonConfig parameterizes one lbd process (or in-process daemon in
// tests).
type DaemonConfig struct {
	Spec    *Spec
	Rank    int
	DataDir string // holds the WAL; must exist
	// OnPhase is a test hook observing handoff progress; phases are
	// "assign", "prepare", "prepare-acked", "escrow", "commit-dup",
	// "apply", "commit-acked", "abort". It runs with the daemon lock
	// held — hooks must not call back into the same daemon.
	OnPhase func(pair, phase string)
}

// Status is a daemon's control-channel self-report.
type Status struct {
	Rank       int     `json:"rank"`
	Started    uint64  `json:"started"` // highest round entered
	Done       uint64  `json:"done"`    // highest round whose local tree work finished
	Capacity   float64 `json:"capacity"`
	Total      float64 `json:"total"`
	DriftRound uint64  `json:"drift_round"`
	DriftSum   float64 `json:"drift_sum"`
	Pending    int     `json:"pending"` // open sender-side escrows
	Active     int     `json:"active"`  // unsettled handoff machines
	VSs        []VSRec `json:"vss"`
}

// Wire message bodies. LBI tuples travel as their three components and
// are rebuilt with core.MakeLBI on arrival.
type lbiBody struct {
	Child   int     `json:"child"`
	L       float64 `json:"l"`
	C       float64 `json:"c"`
	Lmin    float64 `json:"lmin"`
	Invalid bool    `json:"invalid,omitempty"`
}

type wireLight struct {
	Deficit float64 `json:"deficit"`
	Rank    int     `json:"rank"`
	Group   uint64  `json:"group"`
}

type wireOffer struct {
	ID    ident.ID `json:"id"`
	Load  float64  `json:"load"`
	Rank  int      `json:"rank"`
	Group uint64   `json:"group"`
}

type vsaBody struct {
	Child  int         `json:"child"`
	Lights []wireLight `json:"lights"`
	Offers []wireOffer `json:"offers"`
}

type assignBody struct {
	Pair string   `json:"pair"`
	ID   ident.ID `json:"id"`
	Load float64  `json:"load"`
	From int      `json:"from"`
	To   int      `json:"to"`
}

type transferBody struct {
	Pair string   `json:"pair"`
	ID   ident.ID `json:"id"`
	Load float64  `json:"load"`
	From int      `json:"from"`
	To   int      `json:"to"`
}

type roundBody struct {
	Round uint64 `json:"round"`
}

// A round runs two converge-cast sweeps up the rank tree, each one
// lbnode.Epoch per daemon: LBI aggregation, then — once the global
// tuple is down — the VSA sweep.
const (
	lbiSweep = iota
	vsaSweep
)

// roundState is one balancing round's soft state at this daemon. It is
// rebuilt from scratch (and re-fed by retransmissions and re-issued
// triggers) after a restart — only the transfer escrows are durable.
// Both epochs open when the round starts, so a child's VSA reply that
// outruns the global tuple (this daemon restarted mid-round) is simply
// buffered under its child index until the own list exists.
type roundState struct {
	r          uint64
	local      core.LBI // this daemon's own LBI report
	lbi        lbnode.Epoch[core.LBI]
	global     core.LBI
	haveGlobal bool
	inbox      *core.PairList // own VSA advertisements, set with the global tuple
	vsa        lbnode.Epoch[*core.PairList]
	left       *core.PairList // the unpaired rest after rendezvous; nil until the VSA epoch closed
	timers     [2]*time.Timer // per-sweep epoch timers
}

// epoch returns sweep s's machine.
func (rs *roundState) epoch(s int) interface {
	Expire() (int, bool)
	Done() bool
} {
	if s == lbiSweep {
		return &rs.lbi
	}
	return &rs.vsa
}

func (rs *roundState) stopTimers() {
	for _, t := range rs.timers {
		if t != nil {
			t.Stop()
		}
	}
}

// handoffState wraps the lbnode two-phase machine with the executor's
// settlement bookkeeping.
type handoffState struct {
	h       *lbnode.Handoff
	id      ident.ID
	to      int
	settled bool
}

// Daemon hosts one physical node of the cluster: its virtual-server
// store, its KT-subtree state machines, the wire transport, the WAL and
// the /metrics endpoint.
type Daemon struct {
	cfg      DaemonConfig
	spec     *Spec
	rank     int
	parent   int
	children []int

	tr  *wire.Transport
	wal *WAL
	reg *metrics.Registry

	httpLn  net.Listener
	httpSrv *http.Server

	mu         sync.Mutex
	closed     bool
	capacity   float64
	store      map[ident.ID]float64
	applied    map[string]bool
	pending    map[string]PendingCommit
	driftRound uint64
	driftSum   float64
	rounds     map[uint64]*roundState
	handoffs   map[string]*handoffState
	active     int
	started    uint64
	done       uint64

	quitCh   chan struct{}
	quitOnce sync.Once

	cRounds, cHandoffs, cAborts, cApplies, cEscrows *metrics.Counter
}

// NewDaemon recovers state from the WAL (deriving the initial inventory
// when the log is fresh), starts the wire transport and the metrics
// endpoint, and resumes any escrowed commits that were cut off by a
// crash.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	spec := cfg.Spec
	spec.withDefaults()
	if cfg.Rank < 0 || cfg.Rank >= spec.Procs {
		return nil, fmt.Errorf("cluster: rank %d outside 0..%d", cfg.Rank, spec.Procs-1)
	}
	wal, st, err := OpenWAL(filepath.Join(cfg.DataDir, fmt.Sprintf("lbd-%d.wal", cfg.Rank)))
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:      cfg,
		spec:     spec,
		rank:     cfg.Rank,
		parent:   spec.Parent(cfg.Rank),
		children: spec.Children(cfg.Rank),
		wal:      wal,
		rounds:   make(map[uint64]*roundState),
		handoffs: make(map[string]*handoffState),
		quitCh:   make(chan struct{}),
	}
	reg := metrics.NewRegistry()
	d.reg = reg
	d.cRounds = reg.Counter("cluster.rounds")
	d.cHandoffs = reg.Counter("cluster.handoffs")
	d.cAborts = reg.Counter("cluster.aborts")
	d.cApplies = reg.Counter("cluster.applies")
	d.cEscrows = reg.Counter("cluster.escrows")

	if st.HasSnap {
		d.capacity = st.Capacity
		d.store = st.Store
		d.applied = st.Applied
		d.pending = st.Pending
		d.driftRound = st.DriftRound
		d.driftSum = st.DriftSum
	} else {
		inv := DeriveInventories(spec.Seed, spec.Procs, spec.VSPerNode)[cfg.Rank]
		d.capacity = inv.Capacity
		d.store = make(map[ident.ID]float64, len(inv.VSs))
		for _, vs := range inv.VSs {
			d.store[vs.ID] = vs.Load
		}
		d.applied = make(map[string]bool)
		d.pending = make(map[string]PendingCommit)
		if err := d.appendSnap(); err != nil {
			wal.Close()
			return nil, err
		}
	}

	d.tr, err = wire.NewTransport(wire.Config{
		Rank:        cfg.Rank,
		Addrs:       spec.Addrs,
		ClusterID:   spec.ClusterID,
		Handler:     d.handle,
		Request:     d.serveReq,
		RetryBase:   spec.RetryBase,
		RetryCap:    spec.RetryCap,
		MaxAttempts: spec.MaxAttempts,
		Seed:        spec.Seed,
		Metrics:     d.reg,
	})
	if err != nil {
		wal.Close()
		return nil, err
	}

	if len(spec.HTTPAddrs) == spec.Procs {
		ln, err := net.Listen("tcp", spec.HTTPAddrs[cfg.Rank])
		if err != nil {
			d.tr.Close()
			wal.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if reg := d.reg; reg != nil {
				reg.Snapshot().WriteJSON(w)
			}
		})
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: mux}
		go d.httpSrv.Serve(ln)
	}

	// Crash recovery: every open escrow resumes its unbounded commit.
	// The receiver's applied-set absorbs re-deliveries, so resuming is
	// always safe — this is the half of exactly-once the WAL buys.
	d.mu.Lock()
	for pair, pc := range d.pending {
		d.sendCommit(pair, pc)
	}
	d.mu.Unlock()
	return d, nil
}

// Addr returns the daemon's bound wire address.
func (d *Daemon) Addr() string { return d.tr.Addr() }

// Done returns a channel closed when the daemon was asked to quit.
func (d *Daemon) Done() <-chan struct{} { return d.quitCh }

// Registry exposes the daemon's metrics registry.
func (d *Daemon) Registry() *metrics.Registry { return d.reg }

// Close stops the transport, the metrics endpoint and the timers. It
// writes nothing: all durable state is already in the WAL, so Close is
// deliberately indistinguishable from SIGKILL as far as recovery is
// concerned.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	for _, rs := range d.rounds {
		rs.stopTimers()
	}
	d.mu.Unlock()
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	d.tr.Close()
	d.wal.Close()
	d.quitOnce.Do(func() { close(d.quitCh) })
}

func (d *Daemon) hook(pair, phase string) {
	if d.cfg.OnPhase != nil {
		d.cfg.OnPhase(pair, phase)
	}
}

func (d *Daemon) appendSnap() error {
	snap := &walSnap{
		Capacity:   d.capacity,
		DriftRound: d.driftRound,
		DriftSum:   d.driftSum,
	}
	for id, load := range d.store {
		snap.VSs = append(snap.VSs, VSRec{ID: id, Load: load})
	}
	sort.Slice(snap.VSs, func(i, j int) bool { return snap.VSs[i].ID < snap.VSs[j].ID }) //lbvet:ignore identcompare canonical serialization order, not a ring-distance comparison
	for p := range d.applied {
		snap.Applied = append(snap.Applied, p)
	}
	sort.Strings(snap.Applied)
	for _, pc := range d.pending {
		snap.Pending = append(snap.Pending, pc)
	}
	sort.Slice(snap.Pending, func(i, j int) bool { return snap.Pending[i].Pair < snap.Pending[j].Pair })
	return d.wal.Append(walRec{T: "snap", Snap: snap})
}

// standaloneNode materializes the current store as a chord node for the
// runtime-agnostic classification code. The node index is the rank, so
// emitted pairs carry ranks in their endpoint indexes.
func (d *Daemon) standaloneNode() *chord.Node {
	vss := make([]*chord.VServer, 0, len(d.store))
	for id, load := range d.store {
		vss = append(vss, &chord.VServer{ID: id, Load: load})
	}
	sort.Slice(vss, func(i, j int) bool { return vss[i].ID < vss[j].ID }) //lbvet:ignore identcompare deterministic shed-subset input order, not a ring-distance comparison
	return chord.NewStandaloneNode(d.rank, d.capacity, vss)
}

func (d *Daemon) totalLoad() float64 {
	var t float64
	for _, l := range d.store {
		t += l
	}
	return t
}

// ---- control channel ----

func (d *Daemon) serveReq(kind string, body json.RawMessage) (any, error) {
	switch kind {
	case "ping":
		return map[string]int{"rank": d.rank}, nil
	case "round":
		var rb roundBody
		if err := json.Unmarshal(body, &rb); err != nil {
			return nil, err
		}
		d.mu.Lock()
		d.startRound(rb.Round)
		d.mu.Unlock()
		return map[string]bool{"ok": true}, nil
	case "status":
		d.mu.Lock()
		st := Status{
			Rank:       d.rank,
			Started:    d.started,
			Done:       d.done,
			Capacity:   d.capacity,
			Total:      d.totalLoad(),
			DriftRound: d.driftRound,
			DriftSum:   d.driftSum,
			Pending:    len(d.pending),
			Active:     d.active,
		}
		for id, load := range d.store {
			st.VSs = append(st.VSs, VSRec{ID: id, Load: load})
		}
		d.mu.Unlock()
		sort.Slice(st.VSs, func(i, j int) bool { return st.VSs[i].ID < st.VSs[j].ID }) //lbvet:ignore identcompare stable status output order, not a ring-distance comparison
		return st, nil
	case "quit":
		d.quitOnce.Do(func() { close(d.quitCh) })
		return map[string]bool{"ok": true}, nil
	}
	return nil, fmt.Errorf("cluster: unknown control request %q", kind)
}

// ---- peer messages ----

func (d *Daemon) handle(m wire.Msg) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	switch m.Kind {
	case "start":
		d.startRound(m.Round)
	case "lbi":
		var b lbiBody
		if json.Unmarshal(m.Body, &b) == nil {
			if rs, idx := d.replyTo(m.Round, b.Child); idx >= 0 && rs.lbi.ChildReply(idx, decodeLBI(b)) {
				d.closeEpoch(rs, lbiSweep)
			}
		}
	case "global":
		var b lbiBody
		if json.Unmarshal(m.Body, &b) == nil {
			d.onGlobal(m.Round, b)
		}
	case "vsa":
		var b vsaBody
		if json.Unmarshal(m.Body, &b) == nil {
			if rs, idx := d.replyTo(m.Round, b.Child); idx >= 0 && rs.vsa.ChildReply(idx, decodeLists(b)) {
				d.closeEpoch(rs, vsaSweep)
			}
		}
	case "assign":
		var b assignBody
		if json.Unmarshal(m.Body, &b) == nil {
			d.onAssign(m.Round, b)
		}
	case "prepare":
		var b transferBody
		if json.Unmarshal(m.Body, &b) == nil {
			// The reservation itself is the transport acknowledgement: a
			// live receiver acks, a dead one is silent and the sender's
			// bounded retries drain into an abort (lbnode.Handoff.Fail).
			d.hook(b.Pair, "prepare")
		}
	case "commit":
		var b transferBody
		if json.Unmarshal(m.Body, &b) == nil {
			d.onCommit(b)
		}
	}
}

func encodeLBI(child int, lbi core.LBI) lbiBody {
	if !lbi.Valid() {
		return lbiBody{Child: child, Invalid: true}
	}
	return lbiBody{Child: child, L: lbi.L, C: lbi.C, Lmin: lbi.Lmin}
}

func decodeLBI(b lbiBody) core.LBI {
	if b.Invalid {
		return core.LBI{}
	}
	return core.MakeLBI(b.L, b.C, b.Lmin)
}

// startRound enters (or re-enters) round r. A re-entry — from a
// re-issued supervisor trigger or a parent's re-forwarded start —
// re-forwards the trigger down the tree and re-sends whatever this
// daemon already produced upward, so restarted ancestors are re-fed.
// All sends are idempotent at the receiver (epoch dedup per child).
func (d *Daemon) startRound(r uint64) {
	if rs, ok := d.rounds[r]; ok {
		d.refeed(rs)
		return
	}
	if r > d.started {
		d.started = r
	}
	if d.cRounds != nil {
		d.cRounds.Inc()
	}
	d.applyDrift(r)
	// Drop soft state two rounds back; stragglers for pruned rounds are
	// absorbed (and acked) without effect.
	for old, rs := range d.rounds {
		if old+2 <= r {
			rs.stopTimers()
			delete(d.rounds, old)
		}
	}
	rs := &roundState{
		r:     r,
		local: core.NodeLBI(d.standaloneNode()),
		lbi:   lbnode.NewEpoch[core.LBI](len(d.children)),
		vsa:   lbnode.NewEpoch[*core.PairList](len(d.children)),
	}
	d.rounds[r] = rs
	for _, c := range d.children {
		d.tr.Send(c, "start", r, nil, wire.SendOpts{})
	}
	d.openEpoch(rs, lbiSweep)
}

func (d *Daemon) refeed(rs *roundState) {
	for _, c := range d.children {
		d.tr.Send(c, "start", rs.r, nil, wire.SendOpts{})
	}
	if rs.haveGlobal {
		for _, c := range d.children {
			d.tr.Send(c, "global", rs.r, encodeLBI(d.rank, rs.global), wire.SendOpts{})
		}
	}
	if d.parent >= 0 {
		if rs.lbi.Done() {
			d.sendUp(rs, lbiSweep)
		}
		if rs.left != nil {
			d.sendUp(rs, vsaSweep)
		}
	}
}

// openEpoch acts on sweep s's epoch as soon as the daemon can: at once
// when it already closed (every child replied, or there are none),
// otherwise when the last reply lands or the epoch timer fires.
func (d *Daemon) openEpoch(rs *roundState, s int) {
	if rs.epoch(s).Done() {
		d.closeEpoch(rs, s)
		return
	}
	r := rs.r
	rs.timers[s] = time.AfterFunc(d.spec.EpochTimeout, func() { d.expire(r, s) })
}

// expire fires sweep s's epoch timer: give up on the silent children
// and close with what arrived.
func (d *Daemon) expire(r uint64, s int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	rs, ok := d.rounds[r]
	if !ok {
		return
	}
	if _, expired := rs.epoch(s).Expire(); expired {
		d.closeEpoch(rs, s)
	}
}

// replyTo returns the round a child's reply feeds and the child's
// index, or index -1 for a sender that is not a child.
func (d *Daemon) replyTo(r uint64, child int) (*roundState, int) {
	return d.ensureRound(r), d.childIndex(child)
}

// ensureRound returns the round state, creating it (as startRound does)
// when a child's reply outruns the trigger — which happens when this
// daemon restarted mid-round and the child's retransmissions arrive
// before the supervisor re-issues the trigger.
func (d *Daemon) ensureRound(r uint64) *roundState {
	if rs, ok := d.rounds[r]; ok {
		return rs
	}
	d.startRound(r)
	return d.rounds[r]
}

func (d *Daemon) childIndex(rank int) int {
	for i, c := range d.children {
		if c == rank {
			return i
		}
	}
	return -1
}

// closeEpoch acts on sweep s's closed epoch. The LBI aggregate goes up,
// or at the root becomes the global tuple. The VSA lists wait for the
// global tuple (onGlobal reopens the sweep), then pair at this
// rendezvous point, and the unpaired rest goes up.
func (d *Daemon) closeEpoch(rs *roundState, s int) {
	if s == vsaSweep && !rs.haveGlobal {
		return
	}
	if t := rs.timers[s]; t != nil {
		t.Stop()
	}
	if s == lbiSweep && d.rank == 0 {
		d.onGlobal(rs.r, encodeLBI(0, lbnode.Fold(&rs.lbi, rs.local, core.LBI.Merge)))
		return
	}
	if s == vsaSweep {
		rs.left = lbnode.Fold(&rs.vsa, rs.inbox, (*core.PairList).Merge)
		for _, p := range lbnode.Rendezvous(rs.left, d.rank == 0, d.spec.Threshold, rs.global.Lmin) {
			b := assignBody{
				Pair: pairID(rs.r, p.VS.ID, p.From.Index, p.To.Index),
				ID:   p.VS.ID,
				Load: p.Load,
				From: p.From.Index,
				To:   p.To.Index,
			}
			d.tr.Send(p.From.Index, "assign", rs.r, b, wire.SendOpts{})
		}
		if rs.r > d.done {
			d.done = rs.r
		}
	}
	if d.rank != 0 {
		d.sendUp(rs, s)
	}
}

func (d *Daemon) onGlobal(r uint64, b lbiBody) {
	rs := d.ensureRound(r)
	if rs.haveGlobal {
		return
	}
	rs.global = decodeLBI(b)
	rs.haveGlobal = true
	for _, c := range d.children {
		d.tr.Send(c, "global", r, encodeLBI(d.rank, rs.global), wire.SendOpts{})
	}
	st := lbnode.Classify(d.standaloneNode(), rs.global, d.spec.Epsilon, core.SubsetAuto)
	rs.inbox = &core.PairList{}
	if st != nil {
		lbnode.DepositVSA(rs.inbox, st, 0)
	}
	d.openEpoch(rs, vsaSweep)
}

func decodeLists(b vsaBody) *core.PairList {
	sub := &core.PairList{}
	for _, l := range b.Lights {
		sub.AddLight(l.Deficit, &chord.Node{Index: l.Rank, Alive: true}, l.Group)
	}
	for _, o := range b.Offers {
		owner := &chord.Node{Index: o.Rank, Alive: true}
		vs := &chord.VServer{ID: o.ID, Owner: owner, Load: o.Load}
		sub.AddOffer(vs, owner, o.Group)
	}
	return sub
}

func pairID(r uint64, id ident.ID, from, to int) string {
	return fmt.Sprintf("r%d-%s-%d>%d", r, id, from, to)
}

// sendUp reports this daemon's closed epoch of sweep s to its parent.
func (d *Daemon) sendUp(rs *roundState, s int) {
	if s == lbiSweep {
		d.tr.Send(d.parent, "lbi", rs.r, encodeLBI(d.rank, lbnode.Fold(&rs.lbi, rs.local, core.LBI.Merge)), wire.SendOpts{})
		return
	}
	lights, offers := rs.left.Entries()
	b := vsaBody{Child: d.rank}
	for _, l := range lights {
		b.Lights = append(b.Lights, wireLight{Deficit: l.Deficit, Rank: l.Node.Index, Group: l.Group})
	}
	for _, o := range offers {
		b.Offers = append(b.Offers, wireOffer{ID: o.VS.ID, Load: o.VS.Load, Rank: o.Node.Index, Group: o.Group})
	}
	d.tr.Send(d.parent, "vsa", rs.r, b, wire.SendOpts{})
}

// ---- drift ----

// applyDrift scales this node's held loads once per round (skipped
// rounds — the daemon was dead — simply never drift). The summed delta
// is WAL-durable so the supervisor's conservation ledger stays exact
// across any kill/restart interleaving: expected total = Σ initial +
// Σ per-rank DriftSum, and transfers (escrowed loads are deliberately
// not drifted in flight) move load without changing either side.
func (d *Daemon) applyDrift(r uint64) {
	if d.spec.DriftSigma <= 0 || r <= d.driftRound {
		return
	}
	factor := driftFactor(d.spec.Seed, d.rank, r, d.spec.DriftSigma)
	var delta float64
	for id, load := range d.store {
		d.store[id] = load * factor
		delta += load*factor - load
	}
	d.driftRound = r
	d.driftSum += delta
	d.appendSnap()
}

// ---- two-phase transfer, heavy side ----

func (d *Daemon) onAssign(r uint64, b assignBody) {
	if _, dup := d.handoffs[b.Pair]; dup {
		return
	}
	if d.cHandoffs != nil {
		d.cHandoffs.Inc()
	}
	from := &chord.Node{Index: d.rank, Alive: true}
	to := &chord.Node{Index: b.To, Alive: true}
	vs := &chord.VServer{ID: b.ID, Load: b.Load}
	if load, owned := d.store[b.ID]; owned {
		vs.Owner = from
		vs.Load = load
	}
	hs := &handoffState{
		h:  lbnode.NewHandoff(core.Pair{VS: vs, From: from, To: to, Load: vs.Load}),
		id: b.ID,
		to: b.To,
	}
	d.handoffs[b.Pair] = hs
	d.active++
	d.hook(b.Pair, "assign")
	_, op := hs.h.AssignReceived()
	switch op {
	case lbnode.OpPrepare:
		d.sendPrepare(r, b.Pair, hs)
	default:
		d.settleHandoff(b.Pair, hs)
	}
}

func (d *Daemon) sendPrepare(r uint64, pair string, hs *handoffState) {
	b := transferBody{Pair: pair, ID: hs.id, Load: hs.h.Pair.Load, From: d.rank, To: hs.to}
	d.tr.Send(hs.to, "prepare", r, b, wire.SendOpts{
		OnAcked:  func() { d.prepareAcked(r, pair) },
		OnFailed: func() { d.handoffFail(pair) },
	})
}

func (d *Daemon) prepareAcked(r uint64, pair string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	hs, ok := d.handoffs[pair]
	if !ok || hs.settled {
		return
	}
	d.hook(pair, "prepare-acked")
	if op := hs.h.PrepareAcked(); op != lbnode.OpCommit {
		d.settleHandoff(pair, hs)
		return
	}
	load, owned := d.store[hs.id]
	if !owned {
		// Lost the VS between prepare and commit (a racing handoff won
		// the escrow) — abort; nothing durable changed for this pairing.
		hs.h.Fail()
		d.settleHandoff(pair, hs)
		return
	}
	// Escrow: the WAL records the outgoing transfer BEFORE the VS leaves
	// the store and BEFORE the first commit send, so a crash anywhere
	// after this line replays into a resumed commit.
	pc := PendingCommit{Pair: pair, ID: hs.id, Load: load, Dst: hs.to}
	if err := d.wal.Append(walRec{T: "pend", Pair: pair, ID: hs.id, Load: load, Peer: hs.to}); err != nil {
		hs.h.Fail()
		d.settleHandoff(pair, hs)
		return
	}
	delete(d.store, hs.id)
	d.pending[pair] = pc
	if d.cEscrows != nil {
		d.cEscrows.Inc()
	}
	d.hook(pair, "escrow")
	d.sendCommit(pair, pc)
}

// sendCommit drives one escrowed transfer with unbounded retries: a
// commit may already have been applied remotely, so it is never
// abandoned — only acknowledgement (or this process's own death, after
// which recovery resumes it) stops the retransmission.
func (d *Daemon) sendCommit(pair string, pc PendingCommit) {
	b := transferBody{Pair: pair, ID: pc.ID, Load: pc.Load, From: d.rank, To: pc.Dst}
	d.tr.Send(pc.Dst, "commit", 0, b, wire.SendOpts{
		Unbounded: true,
		OnAcked:   func() { d.commitAcked(pair) },
	})
}

func (d *Daemon) commitAcked(pair string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if _, open := d.pending[pair]; !open {
		return
	}
	if err := d.wal.Append(walRec{T: "done", Pair: pair}); err != nil {
		return // retried on next ack or replayed at next boot
	}
	delete(d.pending, pair)
	d.hook(pair, "commit-acked")
	if hs, ok := d.handoffs[pair]; ok {
		d.settleDone(hs)
	}
}

func (d *Daemon) handoffFail(pair string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	hs, ok := d.handoffs[pair]
	if !ok || hs.settled {
		return
	}
	hs.h.Fail()
	d.settleHandoff(pair, hs)
}

// settleHandoff finalizes a non-committed machine (abort or no-op).
func (d *Daemon) settleHandoff(pair string, hs *handoffState) {
	if hs.settled {
		return
	}
	hs.settled = true
	d.active--
	if d.cAborts != nil {
		d.cAborts.Inc()
	}
	d.hook(pair, "abort")
}

// settleDone finalizes a committed machine.
func (d *Daemon) settleDone(hs *handoffState) {
	if hs.settled {
		return
	}
	hs.settled = true
	d.active--
}

// ---- two-phase transfer, light side ----

func (d *Daemon) onCommit(b transferBody) {
	if d.applied[b.Pair] {
		// Retransmission that crossed our restart (the transport's dedup
		// window died with the old process); the WAL's applied-set is the
		// durable second line of defense. The transport still acks it.
		d.hook(b.Pair, "commit-dup")
		return
	}
	if err := d.wal.Append(walRec{T: "apply", Pair: b.Pair, ID: b.ID, Load: b.Load, Peer: b.From}); err != nil {
		return
	}
	d.store[b.ID] = b.Load
	d.applied[b.Pair] = true
	if d.cApplies != nil {
		d.cApplies.Inc()
	}
	d.hook(b.Pair, "apply")
}
