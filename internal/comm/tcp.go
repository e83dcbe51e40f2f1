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

// TCP backend: one process hosts the world's router and the first ranks
// (rank 0, plus the foreman of a distributed run) as
// in-process mailbox endpoints — the same endpoints a local world is made
// of (local.go). Every other rank dials in and registers. All traffic
// between processes flows through the router (star topology), which
// keeps the protocol simple and lets workers join from anywhere a socket
// can reach — the property the paper exploits for geographically
// distributed PVM workers and Linux clusters (§2.2), and that the planned
// Condor/screensaver workers would rely on (§5). A message between two
// hosted ranks never touches a socket; one between a hosted and a remote
// rank crosses exactly one connection.
//
// Membership is elastic: the hosting process holds ranks
// 0..FirstDynamic-1, and every dialer joins anonymously — a HELLO with
// rank -1 is answered by a WELCOME that assigns the next free rank and
// carries an application-provided payload (the run's Config). The router
// synthesizes TagJoin/TagLeave messages to a hosted membership rank as
// workers come and go. Ranks of departed workers are never reused, so a
// late frame from a dead incarnation can never be mistaken for a live
// one. NewTCPRouter and DialTCP are the same model with one hosted rank:
// a dialer that asks for a rank is simply told to expect it in join
// order.
//
// Wire format, all fields big-endian:
//
//	frame   := length(u32) from(i32) to(i32) tag(i32) payload
//	hello   := length(u32)=8 rank(i32) magic(i32)      rank is always -1
//	welcome := rank(i32) paylen(u32) payload
//
// The router acknowledges every hello with a welcome, and hangs up on one
// that claims a rank. The magic doubles as the protocol version: it
// changes whenever the layout of what travels in the frames does, so
// that a peer built before the change is turned away here, with a
// reason, instead of dying on its first undecodable frame. A hello with
// a foreign magic is answered by a welcome of rank -2 whose payload is
// that reason, and the connection is closed.

// tcpMagic is "FDM7": version 7 dropped the welcome's role ranks, the
// result's worker rank and the slices' extension fields. Version 6
// ("FDM6") dropped the welcome's smooth mode; version 5 ("FDM5") its CLV
// precision; version 4 ("FDM4") made the welcome payload the run's
// Config instead of a PHYLIP recipe for rebuilding it; version 3
// ("FDM3") took the monitor rank out of the welcome and the tag
// numbering; version 2 ("FDM2") brought the task and result slice
// frames; version 1 ("FDML") carried one task and one result per frame.
const tcpMagic int32 = 0x46444d37

// helloJoin is the HELLO rank requesting dynamic rank assignment.
const helloJoin int32 = -1

// welcomeRefused is the WELCOME rank of a refused hello; the payload says
// why.
const welcomeRefused int32 = -2

// maxFrameSize bounds a single message (64 MiB), protecting the router
// from corrupt length prefixes.
const maxFrameSize = 64 << 20

// RouterConfig configures a TCP router.
type RouterConfig struct {
	// Addr is the listen address (for example "127.0.0.1:7946" or ":0").
	Addr string
	// FirstDynamic is the first rank handed to anonymous joiners; ranks
	// 0..FirstDynamic-1 are hosted by the router's own process (the
	// master and foreman roles).
	FirstDynamic int
	// Welcome is the payload delivered to anonymous joiners with their
	// assigned rank (the application's join handshake reply, e.g. the
	// run's encoded Config).
	Welcome []byte
	// NotifyRank is the hosted rank that receives synthesized
	// TagJoin/TagLeave messages for anonymous joiners; -1 disables them.
	// Its mailbox exists before the listener accepts, so no join can
	// precede it.
	NotifyRank int
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

// peer is one remote rank's connection; mu keeps its frames whole.
type peer struct {
	conn net.Conn
	mu   sync.Mutex
}

// tcpRouter is the hub of a TCP world: it owns the listener and the
// remote ranks' connections, and delivers into the hosted ranks'
// mailboxes. The hosted ranks' endpoints (localComm) hold it for sends
// to ranks they do not host.
type tcpRouter struct {
	listener net.Listener
	boxes    []*mailbox // the hosted ranks, 0..len(boxes)-1

	welcome    []byte
	notifyRank int

	mu       sync.Mutex
	peers    map[int]*peer
	nextRank int
	closed   bool

	met routerMetrics
}

// NewTCPRouter starts a world that hosts rank 0 alone, listening on
// addr; dialers (DialTCP) are assigned ranks 1, 2, ... in join order. The
// size is not a bound: the world grows as dialers join. The returned
// Communicator's Close shuts down the router.
func NewTCPRouter(addr string, _ int) (Communicator, error) {
	world, err := NewElasticTCPRouter(RouterConfig{Addr: addr, FirstDynamic: 1, NotifyRank: -1})
	if err != nil {
		return nil, err
	}
	return world[0], nil
}

// NewElasticTCPRouter starts a world and returns the endpoints of the
// ranks this process hosts, 0..FirstDynamic-1. Anonymous dialers
// (JoinTCP) are assigned ranks FirstDynamic, FirstDynamic+1, ... as they
// arrive, with no upper bound. Closing rank 0's endpoint shuts down the
// router and every hosted endpoint.
func NewElasticTCPRouter(cfg RouterConfig) ([]Communicator, error) {
	if cfg.FirstDynamic < 1 {
		return nil, fmt.Errorf("comm: first dynamic rank %d, need >= 1", cfg.FirstDynamic)
	}
	if cfg.NotifyRank >= cfg.FirstDynamic {
		return nil, fmt.Errorf("comm: membership rank %d is not hosted (first dynamic rank %d)", cfg.NotifyRank, cfg.FirstDynamic)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("comm: listen %s: %w", cfg.Addr, err)
	}
	r := &tcpRouter{
		listener:   ln,
		welcome:    cfg.Welcome,
		notifyRank: cfg.NotifyRank,
		peers:      map[int]*peer{},
		nextRank:   cfg.FirstDynamic,
		met:        newRouterMetrics(cfg.Obs),
	}
	var world []Communicator
	r.boxes, world = hostedWorld(cfg.FirstDynamic, r)
	go r.acceptLoop()
	return world, nil
}

// ListenAddr reports the bound address of a TCP world's hosted endpoint
// (useful with ":0"), or (nil, false) for endpoints that do not listen.
func ListenAddr(c Communicator) (net.Addr, bool) {
	if lc, ok := c.(*localComm); ok && lc.router != nil {
		return lc.router.listener.Addr(), true
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
	if binary.BigEndian.Uint32(hdr[0:4]) != 8 {
		conn.Close()
		return
	}
	if magic := binary.BigEndian.Uint32(hdr[8:12]); int32(magic) != tcpMagic {
		reason := fmt.Sprintf("protocol mismatch: this router speaks %#x, the hello says %#x (peers must be built from the same version)", uint32(tcpMagic), magic)
		var ack [8]byte
		refused := welcomeRefused
		binary.BigEndian.PutUint32(ack[0:4], uint32(refused))
		binary.BigEndian.PutUint32(ack[4:8], uint32(len(reason)))
		// Best effort: the peer is being turned away either way.
		_, _ = conn.Write(append(ack[:], reason...))
		conn.Close()
		return
	}
	// The write lock is taken before the peer becomes routable, so no
	// frame can reach the connection ahead of its welcome.
	p := &peer{conn: conn}
	p.mu.Lock()
	rank := -1
	r.mu.Lock()
	if !r.closed && int32(binary.BigEndian.Uint32(hdr[4:8])) == helloJoin {
		rank = r.nextRank
		r.nextRank++
		r.peers[rank] = p
		r.met.connects.Inc()
	}
	r.mu.Unlock()
	if rank < 0 {
		conn.Close()
		return
	}

	var ack [8]byte
	binary.BigEndian.PutUint32(ack[0:4], uint32(int32(rank)))
	binary.BigEndian.PutUint32(ack[4:8], uint32(len(r.welcome)))
	_, err := conn.Write(ack[:])
	if err == nil && len(r.welcome) > 0 {
		_, err = conn.Write(r.welcome)
	}
	p.mu.Unlock()
	if err != nil {
		r.drop(rank, p)
		return
	}
	r.notifyMember(rank, TagJoin)
	go r.readLoop(rank, p)
}

// drop unregisters a connection if it is still current and closes it,
// reporting whether the router itself has shut down.
func (r *tcpRouter) drop(rank int, p *peer) (closed bool) {
	r.mu.Lock()
	if r.peers[rank] == p {
		delete(r.peers, rank)
	}
	closed = r.closed
	r.mu.Unlock()
	p.conn.Close()
	r.met.disconnects.Inc()
	return closed
}

// notifyMember reports a worker's arrival or departure to the membership
// rank's mailbox.
func (r *tcpRouter) notifyMember(rank int, tag Tag) {
	if r.notifyRank >= 0 {
		r.boxes[r.notifyRank].put(Message{From: rank, Tag: tag})
	}
}

func (r *tcpRouter) readLoop(rank int, p *peer) {
	for {
		from, to, tag, payload, err := readFrame(p.conn)
		if err != nil {
			if !r.drop(rank, p) {
				r.notifyMember(rank, TagLeave)
			}
			return
		}
		r.met.msgsIn.Inc()
		r.met.bytesIn.Add(float64(16 + len(payload)))
		switch {
		case from != rank:
			PutBuf(payload) // sender cannot spoof its rank
		case to >= 0 && to < len(r.boxes):
			r.boxes[to].put(Message{From: from, Tag: Tag(tag), Data: payload})
		default:
			// Remote to remote. An undeliverable frame is dropped (fault
			// tolerance handles it); either way the payload is dead once
			// written, so recycle it.
			_ = r.forward(from, to, tag, payload)
			PutBuf(payload)
		}
	}
}

// forward writes one frame on the destination's connection. A rank with
// no live connection yields ErrNoRoute, letting a hosted sender treat the
// destination as departed immediately instead of waiting out a timeout.
func (r *tcpRouter) forward(from, to int, tag int32, payload []byte) error {
	r.mu.Lock()
	closed, p := r.closed, r.peers[to]
	r.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if p == nil {
		return fmt.Errorf("comm: send to rank %d: %w", to, ErrNoRoute)
	}
	p.mu.Lock()
	err := writeFrame(p.conn, from, to, tag, payload)
	p.mu.Unlock()
	if err != nil {
		// The read loop sees the closed connection and reports the
		// departure.
		p.conn.Close()
		return nil
	}
	r.met.msgsOut.Inc()
	r.met.bytesOut.Add(float64(16 + len(payload)))
	return nil
}

// shutdown closes the listener, every connection and every hosted
// mailbox; blocked hosted receives return ErrClosed.
func (r *tcpRouter) shutdown() {
	r.mu.Lock()
	r.closed = true
	for _, p := range r.peers {
		p.conn.Close()
	}
	r.peers = map[int]*peer{}
	r.mu.Unlock()
	r.listener.Close()
	for _, mb := range r.boxes {
		mb.close()
	}
}

// tcpClient is a rank connected to the router.
type tcpClient struct {
	rank    int
	conn    net.Conn
	mb      *mailbox
	writeMu sync.Mutex
}

// DialTCP joins the world at addr expecting to be assigned rank: it
// fails, closing its connection, if the router assigns another (ranks
// are handed out in join order, so dialers must arrive one at a time).
// The size is not checked; the world has no bound.
func DialTCP(addr string, rank, _ int) (Communicator, error) {
	c, _, err := JoinTCP(addr)
	if err != nil {
		return nil, err
	}
	if c.Rank() != rank {
		c.Close()
		return nil, fmt.Errorf("comm: router assigned rank %d, not the %d asked for", c.Rank(), rank)
	}
	return c, nil
}

// JoinTCP performs the HELLO/WELCOME handshake with the router at addr:
// it connects with no pre-assigned identity, and the router assigns the
// next free rank and replies with the welcome payload configured by the
// application (the join handshake of the distributed runtime).
func JoinTCP(addr string) (Communicator, []byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: dial %s: %w", addr, err)
	}
	var hello [12]byte
	join := helloJoin
	binary.BigEndian.PutUint32(hello[0:4], 8)
	binary.BigEndian.PutUint32(hello[4:8], uint32(join))
	binary.BigEndian.PutUint32(hello[8:12], uint32(tcpMagic))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("comm: handshake: %w", err)
	}
	var ack [8]byte
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		// A router from before version 2 hangs up on a hello it does not
		// recognize without a word.
		return nil, nil, fmt.Errorf("comm: no welcome from %s (a router built from another version hangs up on this one's hello, %#x): %w", addr, uint32(tcpMagic), err)
	}
	got := int(int32(binary.BigEndian.Uint32(ack[0:4])))
	paylen := binary.BigEndian.Uint32(ack[4:8])
	if got == int(welcomeRefused) && paylen <= 1024 {
		reason := make([]byte, paylen)
		_, err := io.ReadFull(conn, reason)
		conn.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("comm: router at %s refused the connection: %w", addr, err)
		}
		return nil, nil, fmt.Errorf("comm: router at %s refused the connection: %s", addr, reason)
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
	c := &tcpClient{rank: got, conn: conn, mb: newMailbox()}
	go c.readLoop()
	return c, welcome, nil
}

func (c *tcpClient) readLoop() {
	for {
		from, to, tag, payload, err := readFrame(c.conn)
		if err != nil {
			c.mb.close()
			return
		}
		if to == c.rank {
			c.mb.put(Message{From: from, Tag: Tag(tag), Data: payload})
		}
	}
}

func (c *tcpClient) Rank() int { return c.rank }

func (c *tcpClient) Send(to int, tag Tag, data []byte) error {
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
	c.mb.close()
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
