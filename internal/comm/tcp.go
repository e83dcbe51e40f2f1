package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// TCP backend: rank 0 hosts a router; every other rank dials in and
// registers. All traffic flows through the router (star topology), which
// keeps the protocol simple and lets workers join from anywhere a socket
// can reach — the property the paper exploits for geographically
// distributed PVM workers and Linux clusters (§2.2), and that the planned
// Condor/screensaver workers would rely on (§5).
//
// Membership comes in two flavours. A *static* world (NewTCPRouter) has a
// fixed size negotiated up front and every dialer claims its rank in the
// HELLO. An *elastic* world (NewElasticTCPRouter) additionally accepts
// anonymous joiners: a HELLO with rank -1 is answered by a WELCOME that
// assigns the next free rank and carries an application-provided payload
// (the data bundle), and the router synthesizes TagJoin/TagLeave messages
// to a configured membership rank as such workers come and go. Ranks of
// departed workers are never reused, so a late frame from a dead
// incarnation can never be mistaken for a live one.
//
// Wire format, all fields big-endian:
//
//	frame   := length(u32) from(i32) to(i32) tag(i32) payload
//	hello   := length(u32)=8 rank(i32) magic(i32)      rank -1 = join
//	welcome := rank(i32) paylen(u32) payload
//
// The router acknowledges every hello with a welcome; for rank-claiming
// dialers the payload is empty.

const tcpMagic int32 = 0x46444d4c // "FDML"

// helloJoin is the HELLO rank requesting dynamic rank assignment.
const helloJoin int32 = -1

// maxFrameSize bounds a single message (64 MiB), protecting the router
// from corrupt length prefixes.
const maxFrameSize = 64 << 20

// RouterConfig configures an elastic TCP router.
type RouterConfig struct {
	// Addr is the listen address (for example "127.0.0.1:7946" or ":0").
	Addr string
	// FirstDynamic is the first rank handed to anonymous joiners; ranks
	// 1..FirstDynamic-1 are reserved for dialers that claim them (the
	// foreman and monitor loopback roles).
	FirstDynamic int
	// Welcome is the payload delivered to anonymous joiners with their
	// assigned rank (the application's join handshake reply, e.g. the
	// data bundle).
	Welcome []byte
	// NotifyRank receives synthesized TagJoin/TagLeave messages for
	// anonymous joiners; -1 disables them. Notifications for a rank that
	// has not yet connected are queued and flushed when it registers.
	NotifyRank int
	// OnJoin/OnLeave, when non-nil, are invoked in-process as anonymous
	// workers come and go (the master's join barrier uses OnJoin).
	OnJoin, OnLeave func(rank int)
	// Obs, when non-nil, receives router traffic metrics (frame and byte
	// counts by direction, connects, disconnects). Nil costs one nil
	// check per frame.
	Obs *obs.Registry
}

// routerMetrics are the router's traffic counters; every handle is
// nil-safe, so an unobserved router records nothing.
type routerMetrics struct {
	bytesIn, bytesOut *obs.Counter
	msgsIn, msgsOut   *obs.Counter
	connects          *obs.Counter
	disconnects       *obs.Counter
}

func newRouterMetrics(reg *obs.Registry) routerMetrics {
	bytes := reg.CounterVec("fdml_net_bytes_total", "Router frame bytes, by direction.", "dir")
	msgs := reg.CounterVec("fdml_net_messages_total", "Router frames, by direction.", "dir")
	return routerMetrics{
		bytesIn:     bytes.With("in"),
		bytesOut:    bytes.With("out"),
		msgsIn:      msgs.With("in"),
		msgsOut:     msgs.With("out"),
		connects:    reg.Counter("fdml_net_connects_total", "Connections registered by the router."),
		disconnects: reg.Counter("fdml_net_disconnects_total", "Connections the router lost or dropped."),
	}
}

type pendingNote struct {
	rank int
	tag  Tag
}

// tcpRouter is rank 0's endpoint plus the router state.
type tcpRouter struct {
	size     int // static world size; 0 in elastic mode
	listener net.Listener
	mb       *mailbox

	// Elastic membership.
	elastic      bool
	firstDynamic int
	welcome      []byte
	notifyRank   int
	onJoin       func(int)
	onLeave      func(int)

	mu       sync.Mutex
	conns    map[int]net.Conn
	nextRank int
	pending  []pendingNote

	closed  bool
	writeMu map[int]*sync.Mutex

	met routerMetrics
}

// NewTCPRouter starts a static-membership rank-0 endpoint listening on
// addr. size is the world size including rank 0; remote ranks connect
// with DialTCP. The returned Communicator's Close shuts down the router.
func NewTCPRouter(addr string, size int) (Communicator, error) {
	if size < 2 {
		return nil, fmt.Errorf("comm: tcp world size %d, need >= 2", size)
	}
	return newRouter(addr, size, RouterConfig{NotifyRank: -1})
}

// NewElasticTCPRouter starts a rank-0 endpoint with dynamic membership:
// anonymous dialers (JoinTCP) are assigned ranks FirstDynamic,
// FirstDynamic+1, ... as they arrive, with no upper bound.
func NewElasticTCPRouter(cfg RouterConfig) (Communicator, error) {
	if cfg.FirstDynamic < 1 {
		return nil, fmt.Errorf("comm: first dynamic rank %d, need >= 1", cfg.FirstDynamic)
	}
	return newRouter(cfg.Addr, 0, cfg)
}

func newRouter(addr string, size int, cfg RouterConfig) (Communicator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", addr, err)
	}
	r := &tcpRouter{
		size:         size,
		listener:     ln,
		mb:           newMailbox(),
		elastic:      size == 0,
		firstDynamic: cfg.FirstDynamic,
		welcome:      cfg.Welcome,
		notifyRank:   cfg.NotifyRank,
		onJoin:       cfg.OnJoin,
		onLeave:      cfg.OnLeave,
		conns:        map[int]net.Conn{},
		nextRank:     cfg.FirstDynamic,
		writeMu:      map[int]*sync.Mutex{},
		met:          newRouterMetrics(cfg.Obs),
	}
	go r.acceptLoop()
	return r, nil
}

// Addr returns the router's listen address (useful with ":0").
func (r *tcpRouter) Addr() net.Addr { return r.listener.Addr() }

// ListenAddr reports the bound address of a router communicator, or
// (nil, false) for endpoints that do not listen.
func ListenAddr(c Communicator) (net.Addr, bool) {
	if r, ok := c.(*tcpRouter); ok {
		return r.Addr(), true
	}
	return nil, false
}

func (r *tcpRouter) acceptLoop() {
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go r.handshake(conn)
	}
}

func (r *tcpRouter) handshake(conn net.Conn) {
	var hdr [12]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if binary.BigEndian.Uint32(hdr[0:4]) != 8 ||
		int32(binary.BigEndian.Uint32(hdr[8:12])) != tcpMagic {
		conn.Close()
		return
	}
	rank := int(int32(binary.BigEndian.Uint32(hdr[4:8])))
	dynamic := rank == int(helloJoin)
	switch {
	case dynamic:
		if !r.elastic {
			conn.Close()
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		rank = r.nextRank
		r.nextRank++
		r.register(rank, conn)
		r.mu.Unlock()
	case r.validClaim(rank):
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		if old, ok := r.conns[rank]; ok {
			old.Close()
		}
		r.register(rank, conn)
		r.mu.Unlock()
	default:
		conn.Close()
		return
	}

	var welcome []byte
	if dynamic {
		welcome = r.welcome
	}
	var ack [8]byte
	binary.BigEndian.PutUint32(ack[0:4], uint32(int32(rank)))
	binary.BigEndian.PutUint32(ack[4:8], uint32(len(welcome)))
	wmu := r.writeLock(rank)
	wmu.Lock()
	_, err := conn.Write(ack[:])
	if err == nil && len(welcome) > 0 {
		_, err = conn.Write(welcome)
	}
	wmu.Unlock()
	if err != nil {
		r.drop(rank, conn)
		return
	}
	if !dynamic && rank == r.notifyRank {
		// Flush membership notifications that predate this role's
		// connection (workers that joined before the foreman attached,
		// e.g. reconnecting workers racing a master restart).
		r.mu.Lock()
		pend := r.pending
		r.pending = nil
		r.mu.Unlock()
		for _, p := range pend {
			r.forward(p.rank, rank, int32(p.tag), nil)
		}
	}
	if dynamic {
		r.notifyMember(rank, TagJoin)
	}
	go r.readLoop(rank, conn, dynamic)
}

// validClaim reports whether an explicitly claimed rank is acceptable.
func (r *tcpRouter) validClaim(rank int) bool {
	if r.elastic {
		return rank > 0 && rank < r.firstDynamic
	}
	return rank > 0 && rank < r.size
}

// register records a connection; caller holds r.mu.
func (r *tcpRouter) register(rank int, conn net.Conn) {
	r.conns[rank] = conn
	if r.writeMu[rank] == nil {
		r.writeMu[rank] = &sync.Mutex{}
	}
	r.met.connects.Inc()
}

// writeLock returns the per-destination write mutex, creating it if
// needed.
func (r *tcpRouter) writeLock(rank int) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.writeMu[rank] == nil {
		r.writeMu[rank] = &sync.Mutex{}
	}
	return r.writeMu[rank]
}

// drop unregisters a connection if it is still current and closes it.
func (r *tcpRouter) drop(rank int, conn net.Conn) {
	r.mu.Lock()
	if r.conns[rank] == conn {
		delete(r.conns, rank)
	}
	r.mu.Unlock()
	conn.Close()
	r.met.disconnects.Inc()
}

// notifyMember reports an anonymous worker's arrival or departure to the
// configured membership rank and then to the in-process callbacks. The
// order matters for a join: the master's join barrier hangs off OnJoin,
// and it must not open while the foreman's copy of the news is still
// unsent — a short run could otherwise finish, and shut down only the
// workers the foreman had heard of, before the last joiner is known.
func (r *tcpRouter) notifyMember(rank int, tag Tag) {
	r.sendMemberNote(rank, tag)
	switch tag {
	case TagJoin:
		if r.onJoin != nil {
			r.onJoin(rank)
		}
	case TagLeave:
		if r.onLeave != nil {
			r.onLeave(rank)
		}
	}
}

// sendMemberNote delivers a synthesized TagJoin/TagLeave to the
// membership rank, queueing it while that rank has not attached yet.
func (r *tcpRouter) sendMemberNote(rank int, tag Tag) {
	nr := r.notifyRank
	if nr < 0 {
		return
	}
	if nr == 0 {
		r.mb.mu.Lock()
		if !r.mb.closed {
			r.mb.queue = append(r.mb.queue, Message{From: rank, Tag: tag})
		}
		r.mb.mu.Unlock()
		r.mb.pulse()
		return
	}
	r.mu.Lock()
	if r.conns[nr] == nil {
		r.pending = append(r.pending, pendingNote{rank: rank, tag: tag})
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.forward(rank, nr, int32(tag), nil)
}

func (r *tcpRouter) readLoop(rank int, conn net.Conn, dynamic bool) {
	for {
		from, to, tag, payload, err := readFrame(conn)
		if err != nil {
			r.mu.Lock()
			if r.conns[rank] == conn {
				delete(r.conns, rank)
			}
			closed := r.closed
			r.mu.Unlock()
			conn.Close()
			r.met.disconnects.Inc()
			if dynamic && !closed {
				r.notifyMember(rank, TagLeave)
			}
			return
		}
		r.met.msgsIn.Inc()
		r.met.bytesIn.Add(float64(16 + len(payload)))
		if from != rank {
			PutBuf(payload)
			continue // sender cannot spoof its rank
		}
		if to == 0 {
			r.mb.mu.Lock()
			if !r.mb.closed {
				r.mb.queue = append(r.mb.queue, Message{From: from, Tag: Tag(tag), Data: payload})
			}
			r.mb.mu.Unlock()
			r.mb.pulse()
			continue
		}
		r.forward(from, to, tag, payload)
		// The payload is dead once written to (or dropped for) the
		// destination connection; recycle it.
		PutBuf(payload)
	}
}

func (r *tcpRouter) forward(from, to int, tag int32, payload []byte) {
	r.mu.Lock()
	conn := r.conns[to]
	wmu := r.writeMu[to]
	r.mu.Unlock()
	if conn == nil || wmu == nil {
		return // destination not connected; drop (fault tolerance handles it)
	}
	wmu.Lock()
	err := writeFrame(conn, from, to, tag, payload)
	wmu.Unlock()
	if err != nil {
		conn.Close()
		return
	}
	r.met.msgsOut.Inc()
	r.met.bytesOut.Add(float64(16 + len(payload)))
}

func (r *tcpRouter) Rank() int { return 0 }

// Size returns the static world size, or for elastic worlds the extent of
// the rank space handed out so far.
func (r *tcpRouter) Size() int {
	if !r.elastic {
		return r.size
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextRank
}

// Send routes a message to a connected rank. A rank with no live
// connection yields ErrNoRoute, letting the caller treat the destination
// as departed immediately instead of waiting out a timeout.
func (r *tcpRouter) Send(to int, tag Tag, data []byte) error {
	if to == 0 {
		return fmt.Errorf("comm: rank 0 sending to itself")
	}
	if to < 0 || (!r.elastic && to >= r.size) {
		return fmt.Errorf("comm: send to rank %d of %d", to, r.size)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	connected := r.conns[to] != nil
	r.mu.Unlock()
	if !connected {
		return fmt.Errorf("comm: send to rank %d: %w", to, ErrNoRoute)
	}
	r.forward(0, to, int32(tag), data)
	return nil
}

func (r *tcpRouter) Recv(from int, tag Tag) (Message, error) {
	return recvMailbox(r.mb, from, tag, nil)
}

func (r *tcpRouter) RecvTimeout(from int, tag Tag, d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return recvMailbox(r.mb, from, tag, timer.C)
}

func (r *tcpRouter) Close() error {
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = map[int]net.Conn{}
	r.mu.Unlock()
	r.listener.Close()
	r.mb.mu.Lock()
	r.mb.closed = true
	r.mb.mu.Unlock()
	r.mb.pulse()
	return nil
}

// tcpClient is a non-zero rank connected to the router.
type tcpClient struct {
	rank, size int
	// elastic marks a client of a dynamic world: sends are not bounded
	// by a world size (the foreman must reach ranks assigned after it
	// attached).
	elastic bool
	conn    net.Conn
	mb      *mailbox
	writeMu sync.Mutex
}

// DialTCP connects rank (1..size-1) to a static router at addr.
func DialTCP(addr string, rank, size int) (Communicator, error) {
	if rank <= 0 || rank >= size {
		return nil, fmt.Errorf("comm: tcp rank %d of %d (rank 0 is the router)", rank, size)
	}
	c, _, err := dial(addr, int32(rank))
	if err != nil {
		return nil, err
	}
	c.size = size
	return c, nil
}

// DialTCPRole connects to an elastic router claiming a reserved role rank
// (below the router's first dynamic rank). The returned endpoint may send
// to any rank, including dynamically assigned ones.
func DialTCPRole(addr string, rank int) (Communicator, error) {
	if rank <= 0 {
		return nil, fmt.Errorf("comm: tcp role rank %d (rank 0 is the router)", rank)
	}
	c, _, err := dial(addr, int32(rank))
	if err != nil {
		return nil, err
	}
	c.elastic = true
	return c, nil
}

// JoinTCP connects to an elastic router with no pre-assigned identity.
// The router assigns the next free rank and replies with the welcome
// payload configured by the application (the join handshake of the
// distributed runtime).
func JoinTCP(addr string) (Communicator, []byte, error) {
	c, welcome, err := dial(addr, helloJoin)
	if err != nil {
		return nil, nil, err
	}
	c.elastic = true
	return c, welcome, nil
}

// dial performs the HELLO/WELCOME handshake. rank is the claimed rank or
// helloJoin for dynamic assignment.
func dial(addr string, rank int32) (*tcpClient, []byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: dial %s: %w", addr, err)
	}
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:4], 8)
	binary.BigEndian.PutUint32(hello[4:8], uint32(rank))
	binary.BigEndian.PutUint32(hello[8:12], uint32(tcpMagic))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("comm: handshake: %w", err)
	}
	var ack [8]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("comm: handshake ack: %w", err)
	}
	got := int(int32(binary.BigEndian.Uint32(ack[0:4])))
	paylen := binary.BigEndian.Uint32(ack[4:8])
	if rank != helloJoin && got != int(rank) {
		conn.Close()
		return nil, nil, fmt.Errorf("comm: router rejected rank %d", rank)
	}
	if got <= 0 || paylen > maxFrameSize {
		conn.Close()
		return nil, nil, fmt.Errorf("comm: bad welcome (rank %d, payload %d)", got, paylen)
	}
	var welcome []byte
	if paylen > 0 {
		welcome = make([]byte, paylen)
		if _, err := io.ReadFull(conn, welcome); err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("comm: welcome payload: %w", err)
		}
	}
	conn.SetReadDeadline(time.Time{})
	c := &tcpClient{rank: got, size: got + 1, conn: conn, mb: newMailbox()}
	go c.readLoop()
	return c, welcome, nil
}

func (c *tcpClient) readLoop() {
	for {
		from, to, tag, payload, err := readFrame(c.conn)
		if err != nil {
			c.mb.mu.Lock()
			c.mb.closed = true
			c.mb.mu.Unlock()
			c.mb.pulse()
			return
		}
		if to != c.rank {
			continue
		}
		c.mb.mu.Lock()
		if !c.mb.closed {
			c.mb.queue = append(c.mb.queue, Message{From: from, Tag: Tag(tag), Data: payload})
		}
		c.mb.mu.Unlock()
		c.mb.pulse()
	}
}

func (c *tcpClient) Rank() int { return c.rank }
func (c *tcpClient) Size() int { return c.size }

func (c *tcpClient) Send(to int, tag Tag, data []byte) error {
	if to < 0 || (!c.elastic && to >= c.size) {
		return fmt.Errorf("comm: send to rank %d of %d", to, c.size)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := writeFrame(c.conn, c.rank, to, int32(tag), data); err != nil {
		return fmt.Errorf("comm: send: %w", err)
	}
	return nil
}

func (c *tcpClient) Recv(from int, tag Tag) (Message, error) {
	return recvMailbox(c.mb, from, tag, nil)
}

func (c *tcpClient) RecvTimeout(from int, tag Tag, d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return recvMailbox(c.mb, from, tag, timer.C)
}

func (c *tcpClient) Close() error {
	c.conn.Close()
	c.mb.mu.Lock()
	c.mb.closed = true
	c.mb.mu.Unlock()
	c.mb.pulse()
	return nil
}

// recvMailbox implements the shared blocking receive over a mailbox.
func recvMailbox(mb *mailbox, from int, tag Tag, timeout <-chan time.Time) (Message, error) {
	for {
		mb.mu.Lock()
		if m, ok := takeMatch(mb, from, tag); ok {
			if len(mb.queue) > 0 {
				mb.pulse()
			}
			mb.mu.Unlock()
			return m, nil
		}
		closed := mb.closed
		mb.mu.Unlock()
		if closed {
			return Message{}, ErrClosed
		}
		select {
		case <-mb.arrived:
		case <-timeout:
			return Message{}, ErrTimeout
		}
	}
}

// writeFrame emits one framed message.
func writeFrame(w io.Writer, from, to int, tag int32, payload []byte) error {
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(12+len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(int32(from)))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(int32(to)))
	binary.BigEndian.PutUint32(hdr[12:16], uint32(tag))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one framed message. The routing header is read into a
// stack buffer separately from the payload, so the payload is a
// standalone pooled buffer (GetBuf) that the consumer may recycle with
// PutBuf once decoded.
func readFrame(r io.Reader) (from, to int, tag int32, payload []byte, err error) {
	var hdr [16]byte
	if _, err = io.ReadFull(r, hdr[:4]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 12 || n > maxFrameSize {
		err = fmt.Errorf("comm: bad frame length %d", n)
		return
	}
	if _, err = io.ReadFull(r, hdr[4:16]); err != nil {
		return
	}
	from = int(int32(binary.BigEndian.Uint32(hdr[4:8])))
	to = int(int32(binary.BigEndian.Uint32(hdr[8:12])))
	tag = int32(binary.BigEndian.Uint32(hdr[12:16]))
	if n > 12 {
		payload = GetBuf(int(n - 12))
		if _, err = io.ReadFull(r, payload); err != nil {
			PutBuf(payload)
			payload = nil
			return
		}
	}
	return
}
