package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"p2plb/internal/metrics"
)

// Defaults for the reliable-delivery knobs. RetryBase mirrors the sim
// executor's 2·cost+2 discipline (internal/protocol): the first
// retransmission fires after roughly two round trips plus slack, and
// every further attempt doubles the wait up to RetryCap, with a jittered
// fraction added so synchronized retry storms decorrelate.
const (
	DefaultRetryBase   = 25 * time.Millisecond
	DefaultRetryCap    = time.Second
	DefaultMaxAttempts = 8
)

// writeTimeout is the per-connection dial and write deadline.
const writeTimeout = 5 * time.Second

// Config parameterizes a Transport.
type Config struct {
	// Rank is this daemon's index in Addrs; Addrs[Rank] is the address
	// to listen on (host:port, or host:0 for an ephemeral port).
	Rank  int
	Addrs []string
	// ClusterID guards against cross-cluster connections: handshakes
	// with a different ID are refused.
	ClusterID string
	// Handler is called exactly once per accepted peer message
	// (duplicates from retransmission are absorbed before it runs). It
	// runs on a connection's read goroutine; the acknowledgement is sent
	// after it returns, so a handler that has durably recorded its
	// effect before returning gets at-least-once-with-dedup = exactly
	//-once processing.
	Handler func(m Msg)
	// Request serves one synchronous control request.
	Request func(kind string, body json.RawMessage) (any, error)

	// RetryBase/RetryCap/MaxAttempts shape the per-message
	// retransmission ladder; zero values take the defaults above.
	RetryBase   time.Duration
	RetryCap    time.Duration
	MaxAttempts int

	// Seed feeds the retry-jitter stream (any fixed value; jitter only
	// decorrelates timers, it carries no protocol meaning).
	Seed int64
	// Metrics, when set, receives wire.* counters.
	Metrics *metrics.Registry
}

// SendOpts controls one reliable send.
type SendOpts struct {
	// Unbounded retries forever (until the transport closes) instead of
	// giving up after MaxAttempts — the commit phase of a two-phase
	// transfer uses this, because a commit may already have been applied
	// remotely and must therefore be driven to acknowledgement, never
	// abandoned.
	Unbounded bool
	// OnAcked runs (once, on a transport goroutine) when the receiver
	// acknowledged the message.
	OnAcked func()
	// OnFailed runs when a bounded send exhausted its attempts.
	OnFailed func()
}

// dedup is the per-sender duplicate-suppression window.
type dedup struct {
	seen map[uint64]bool
	max  uint64
}

func (d *dedup) mark(seq uint64) {
	d.seen[seq] = true
	if seq > d.max {
		d.max = seq
	}
	// Prune far-behind entries so long-lived daemons stay bounded: a
	// retransmission older than the window would have been acked (and
	// its sender silenced) long ago.
	if len(d.seen) > 8192 {
		for s := range d.seen {
			if s+4096 < d.max {
				delete(d.seen, s)
			}
		}
	}
}

// Transport is one daemon's wire endpoint: a listener for inbound peer
// and control connections, a lazily-dialed outbound connection per
// peer, and the reliable-delivery machinery (acks, retransmission with
// capped doubling and jitter, receiver-side dedup).
type Transport struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	peers   map[int]*conn            // outbound, by rank
	inbound map[*conn]bool           // accepted connections, severed on Close
	pending map[uint64]chan struct{} // un-acked sends, by seq
	seen    map[int]*dedup           // inbound dedup, by source rank
	nextSeq uint64
	closed  bool

	jmu    sync.Mutex
	jitter *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup

	cSent, cRetries, cAcked, cFailed, cDups *metrics.Counter
}

// NewTransport starts listening on cfg.Addrs[cfg.Rank] and returns the
// endpoint. Close releases it.
func NewTransport(cfg Config) (*Transport, error) {
	if cfg.Rank < 0 || cfg.Rank >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: rank %d outside address table of %d", cfg.Rank, len(cfg.Addrs))
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = DefaultRetryCap
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Rank])
	if err != nil {
		return nil, err
	}
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		peers:   make(map[int]*conn),
		inbound: make(map[*conn]bool),
		pending: make(map[uint64]chan struct{}),
		seen:    make(map[int]*dedup),
		jitter:  rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Rank)<<20 ^ 0x77697265)),
		stop:    make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		t.cSent = reg.Counter("wire.sent")
		t.cRetries = reg.Counter("wire.retries")
		t.cAcked = reg.Counter("wire.acked")
		t.cFailed = reg.Counter("wire.failed")
		t.cDups = reg.Counter("wire.dups")
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with :0 ports).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Close stops the listener, severs every connection and terminates the
// retry goroutines. In-flight sends are abandoned; their callbacks do
// not run.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.stop)
	t.ln.Close()
	for _, c := range t.peers {
		c.close()
	}
	t.peers = make(map[int]*conn)
	for c := range t.inbound {
		c.close()
	}
	t.inbound = make(map[*conn]bool)
	t.mu.Unlock()
	t.wg.Wait()
}

// Send delivers one message reliably: it is retransmitted on a
// capped-doubling, jittered timer until the destination acknowledges
// it, the attempt budget runs out (bounded sends), or the transport
// closes. Send never blocks on the network; all I/O happens on the
// message's retry goroutine.
func (t *Transport) Send(dst int, kind string, round uint64, body any, opts SendOpts) error {
	if dst < 0 || dst >= len(t.cfg.Addrs) {
		return fmt.Errorf("wire: destination rank %d outside address table", dst)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("wire: transport closed")
	}
	t.nextSeq++
	m := Msg{Seq: t.nextSeq, Src: t.cfg.Rank, Kind: kind, Round: round, Body: raw}
	acked := make(chan struct{})
	t.pending[m.Seq] = acked
	t.mu.Unlock()
	if t.cSent != nil {
		t.cSent.Inc()
	}
	t.wg.Add(1)
	go t.retryLoop(dst, m, acked, opts)
	return nil
}

// retryLoop drives one message to acknowledgement (or failure).
func (t *Transport) retryLoop(dst int, m Msg, acked chan struct{}, opts SendOpts) {
	defer t.wg.Done()
	backoff := t.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		t.deliver(dst, m)
		wait := backoff + t.jitterFor(backoff)
		timer := time.NewTimer(wait)
		select {
		case <-acked:
			timer.Stop()
			if t.cAcked != nil {
				t.cAcked.Inc()
			}
			if opts.OnAcked != nil {
				opts.OnAcked()
			}
			return
		case <-t.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if !opts.Unbounded && attempt+1 >= t.cfg.MaxAttempts {
			t.mu.Lock()
			delete(t.pending, m.Seq)
			t.mu.Unlock()
			if t.cFailed != nil {
				t.cFailed.Inc()
			}
			if opts.OnFailed != nil {
				opts.OnFailed()
			}
			return
		}
		if t.cRetries != nil {
			t.cRetries.Inc()
		}
		if backoff < t.cfg.RetryCap {
			backoff *= 2
			if backoff > t.cfg.RetryCap {
				backoff = t.cfg.RetryCap
			}
		}
	}
}

// jitterFor draws a uniform jitter in [0, backoff/4].
func (t *Transport) jitterFor(backoff time.Duration) time.Duration {
	if backoff <= 4 {
		return 0
	}
	t.jmu.Lock()
	defer t.jmu.Unlock()
	return time.Duration(t.jitter.Int63n(int64(backoff / 4)))
}

// deliver makes one best-effort attempt to put the message on the wire;
// errors are swallowed (the retry timer is the recovery path).
func (t *Transport) deliver(dst int, m Msg) {
	c, err := t.peerConn(dst)
	if err != nil {
		return
	}
	if err := c.writeFrame(frameMsg, m); err != nil {
		t.dropPeer(dst, c)
	}
}

// peerConn returns the cached outbound connection to dst, dialing and
// handshaking a fresh one if needed.
func (t *Transport) peerConn(dst int) (*conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("wire: transport closed")
	}
	if c, ok := t.peers[dst]; ok {
		t.mu.Unlock()
		return c, nil
	}
	addr := t.cfg.Addrs[dst]
	t.mu.Unlock()

	nc, err := net.DialTimeout("tcp", addr, writeTimeout)
	if err != nil {
		return nil, err
	}
	c := newConn(nc, writeTimeout)
	if _, err := handshakeDial(c, Hello{Version: Version, ClusterID: t.cfg.ClusterID, Rank: t.cfg.Rank, Role: "peer"}); err != nil {
		c.close()
		return nil, err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.close()
		return nil, fmt.Errorf("wire: transport closed")
	}
	if prev, ok := t.peers[dst]; ok {
		// Lost a dial race; keep the established one.
		t.mu.Unlock()
		c.close()
		return prev, nil
	}
	t.peers[dst] = c
	t.mu.Unlock()

	// Outbound connections carry only acks back; drain them.
	t.wg.Add(1)
	go t.ackLoop(dst, c)
	return c, nil
}

// dropPeer discards a failed outbound connection so the next attempt
// redials.
func (t *Transport) dropPeer(dst int, c *conn) {
	t.mu.Lock()
	if t.peers[dst] == c {
		delete(t.peers, dst)
	}
	t.mu.Unlock()
	c.close()
}

// ackLoop reads acknowledgement frames off an outbound connection.
func (t *Transport) ackLoop(dst int, c *conn) {
	defer t.wg.Done()
	for {
		kind, body, err := c.readFrame()
		if err != nil {
			t.dropPeer(dst, c)
			return
		}
		if kind != frameAck {
			continue
		}
		var a Ack
		if json.Unmarshal(body, &a) != nil {
			continue
		}
		t.mu.Lock()
		ch, ok := t.pending[a.Seq]
		if ok {
			delete(t.pending, a.Seq)
		}
		t.mu.Unlock()
		if ok {
			close(ch)
		}
	}
}

// acceptLoop serves inbound peer and control connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.serveConn(nc)
	}
}

// serveConn handshakes one inbound connection and dispatches its
// frames. Version or cluster mismatches are answered with our own
// HelloAck (so the dialer can diagnose) and a close.
func (t *Transport) serveConn(nc net.Conn) {
	defer t.wg.Done()
	c := newConn(nc, writeTimeout)
	defer c.close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[c] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
	}()
	kind, body, err := c.readFrame()
	if err != nil || kind != frameHello {
		return
	}
	var hello Hello
	if json.Unmarshal(body, &hello) != nil {
		return
	}
	if err := c.writeFrame(frameHelloAck, HelloAck{Version: Version, Rank: t.cfg.Rank}); err != nil {
		return
	}
	if hello.Version != Version || hello.ClusterID != t.cfg.ClusterID {
		return
	}
	for {
		kind, body, err := c.readFrame()
		if err != nil {
			return
		}
		switch kind {
		case frameMsg:
			var m Msg
			if json.Unmarshal(body, &m) != nil {
				continue
			}
			if t.accept(m) {
				c.writeFrame(frameAck, Ack{Seq: m.Seq})
			}
		case frameReq:
			var r Req
			if json.Unmarshal(body, &r) != nil {
				continue
			}
			c.writeFrame(frameResp, t.serveReq(r))
		}
	}
}

// accept runs the dedup window and, for a first delivery, the handler.
// It reports whether an ack should be sent (always: duplicates re-ack
// so a sender whose first ack was lost goes quiet).
func (t *Transport) accept(m Msg) bool {
	t.mu.Lock()
	d := t.seen[m.Src]
	if d == nil {
		d = &dedup{seen: make(map[uint64]bool)}
		t.seen[m.Src] = d
	}
	if d.seen[m.Seq] {
		t.mu.Unlock()
		if t.cDups != nil {
			t.cDups.Inc()
		}
		return true
	}
	d.mark(m.Seq)
	t.mu.Unlock()
	if t.cfg.Handler != nil {
		t.cfg.Handler(m)
	}
	return true
}

// serveReq answers one control request.
func (t *Transport) serveReq(r Req) Resp {
	if t.cfg.Request == nil {
		return Resp{Err: "no control handler"}
	}
	out, err := t.cfg.Request(r.Kind, r.Body)
	if err != nil {
		return Resp{Err: err.Error()}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return Resp{Err: err.Error()}
	}
	return Resp{OK: true, Body: raw}
}
