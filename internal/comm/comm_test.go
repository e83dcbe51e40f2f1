package comm

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// listenAddr returns the address a TCP world's hosted endpoint listens on.
func listenAddr(t testing.TB, c Communicator) string {
	t.Helper()
	addr, ok := ListenAddr(c)
	if !ok {
		t.Fatal("endpoint does not listen")
	}
	return addr.String()
}

// worlds abstracts world construction so every test runs against a local
// world, a static TCP world (rank 0 hosted, the rest dialed), and an
// elastic TCP world whose lower half is hosted and upper half joined.
func worlds(t *testing.T, size int) map[string][]Communicator {
	t.Helper()
	out := map[string][]Communicator{}

	local, err := NewLocal(size)
	if err != nil {
		t.Fatal(err)
	}
	out["local"] = local

	router, err := NewTCPRouter("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	addr := listenAddr(t, router)
	tcp := make([]Communicator, size)
	tcp[0] = router
	for r := 1; r < size; r++ {
		c, err := DialTCP(addr, r, size)
		if err != nil {
			t.Fatal(err)
		}
		tcp[r] = c
	}
	out["tcp"] = tcp

	hosted, err := NewElasticTCPRouter(RouterConfig{Addr: "127.0.0.1:0", FirstDynamic: (size + 1) / 2, NotifyRank: -1})
	if err != nil {
		t.Fatal(err)
	}
	for r := len(hosted); r < size; r++ {
		c, _, err := JoinTCP(listenAddr(t, hosted[0]))
		if err != nil {
			t.Fatal(err)
		}
		if c.Rank() != r {
			t.Fatalf("joiner assigned rank %d, want %d", c.Rank(), r)
		}
		hosted = append(hosted, c)
	}
	out["hosted"] = hosted
	return out
}

func closeWorld(w []Communicator) {
	for _, c := range w {
		c.Close()
	}
}

func TestPingPong(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			done := make(chan error, 1)
			go func() {
				m, err := w[1].Recv(0, TagTask)
				if err != nil {
					done <- err
					return
				}
				done <- w[1].Send(0, TagResult, append([]byte("re:"), m.Data...))
			}()
			if err := w[0].Send(1, TagTask, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			m, err := w[0].Recv(1, TagResult)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Data) != "re:hello" {
				t.Errorf("payload = %q", m.Data)
			}
			if m.From != 1 || m.Tag != TagResult {
				t.Errorf("meta = %+v", m)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFIFOOrderPerSender(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			const n = 200
			for i := 0; i < n; i++ {
				if err := w[0].Send(1, TagTask, []byte{byte(i), byte(i >> 8)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				m, err := w[1].Recv(0, TagTask)
				if err != nil {
					t.Fatal(err)
				}
				got := int(m.Data[0]) | int(m.Data[1])<<8
				if got != i {
					t.Fatalf("message %d arrived as %d", i, got)
				}
			}
		})
	}
}

func TestTagFiltering(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			if err := w[0].Send(1, TagTask, []byte("task")); err != nil {
				t.Fatal(err)
			}
			if err := w[0].Send(1, TagControl, []byte("ctl")); err != nil {
				t.Fatal(err)
			}
			// Receive the control message first even though the task
			// arrived earlier.
			m, err := w[1].Recv(AnySource, TagControl)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Data) != "ctl" {
				t.Errorf("got %q", m.Data)
			}
			m, err = w[1].Recv(AnySource, TagTask)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Data) != "task" {
				t.Errorf("got %q", m.Data)
			}
		})
	}
}

func TestAnySourceGathers(t *testing.T) {
	for name, w := range worlds(t, 4) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			var wg sync.WaitGroup
			for r := 1; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					if err := w[r].Send(0, TagResult, []byte{byte(r)}); err != nil {
						t.Error(err)
					}
				}(r)
			}
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				m, err := w[0].Recv(AnySource, TagResult)
				if err != nil {
					t.Fatal(err)
				}
				if int(m.Data[0]) != m.From {
					t.Errorf("payload %d from rank %d", m.Data[0], m.From)
				}
				seen[m.From] = true
			}
			wg.Wait()
			if len(seen) != 3 {
				t.Errorf("gathered from %d ranks, want 3", len(seen))
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			start := time.Now()
			_, err := w[0].RecvTimeout(AnySource, TagResult, 30*time.Millisecond)
			if err != ErrTimeout {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
				t.Errorf("returned after %v, too early", elapsed)
			}
			// A message arriving within the window is delivered.
			go func() {
				time.Sleep(10 * time.Millisecond)
				w[1].Send(0, TagResult, []byte("late"))
			}()
			m, err := w[0].RecvTimeout(AnySource, TagResult, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Data) != "late" {
				t.Errorf("got %q", m.Data)
			}
		})
	}
}

func TestCloseUnblocksReceiver(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			errc := make(chan error, 1)
			go func() {
				_, err := w[1].Recv(AnySource, AnyTag)
				errc <- err
			}()
			time.Sleep(10 * time.Millisecond)
			w[1].Close()
			select {
			case err := <-errc:
				if err != ErrClosed {
					t.Errorf("err = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("receiver did not unblock")
			}
			w[0].Close()
		})
	}
}

func TestSendValidation(t *testing.T) {
	for name, w := range worlds(t, 2) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			if err := w[0].Send(7, TagTask, nil); err == nil {
				t.Error("send to out-of-range rank should fail")
			}
		})
	}
}

func TestPayloadIsolation(t *testing.T) {
	// Mutating the sender's buffer after Send must not affect delivery.
	w, err := NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWorld(w)
	buf := []byte("original")
	if err := w[0].Send(1, TagTask, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "clobber!")
	m, err := w[1].Recv(0, TagTask)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "original" {
		t.Errorf("payload = %q, want original", m.Data)
	}
}

func TestLargeMessageTCP(t *testing.T) {
	w := worlds(t, 2)["tcp"]
	defer closeWorld(w)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := w[0].Send(1, TagTask, big); err != nil {
		t.Fatal(err)
	}
	m, err := w[1].Recv(0, TagTask)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != len(big) {
		t.Fatalf("size %d, want %d", len(m.Data), len(big))
	}
	for i := range big {
		if m.Data[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestWorkerToWorkerViaRouter(t *testing.T) {
	w := worlds(t, 3)["tcp"]
	defer closeWorld(w)
	if err := w[1].Send(2, TagControl, []byte("peer")); err != nil {
		t.Fatal(err)
	}
	m, err := w[2].Recv(1, TagControl)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "peer" || m.From != 1 {
		t.Errorf("got %q from %d", m.Data, m.From)
	}
}

func TestElasticJoinAssignsRanksAndWelcome(t *testing.T) {
	joined := make(chan int, 8)
	world, err := NewElasticTCPRouter(RouterConfig{
		Addr:         "127.0.0.1:0",
		FirstDynamic: 2,
		Welcome:      []byte("bundle-bytes"),
		NotifyRank:   0,
		OnJoin:       func(rank int) { joined <- rank },
	})
	if err != nil {
		t.Fatal(err)
	}
	router := world[0]
	defer router.Close()
	addr := listenAddr(t, router)

	w1, pay1, err := JoinTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, pay2, err := JoinTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()

	ranks := map[int]bool{w1.Rank(): true, w2.Rank(): true}
	if !ranks[2] || !ranks[3] {
		t.Errorf("assigned ranks %d and %d, want 2 and 3", w1.Rank(), w2.Rank())
	}
	if string(pay1) != "bundle-bytes" || string(pay2) != "bundle-bytes" {
		t.Errorf("welcome payloads %q / %q", pay1, pay2)
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-joined:
			if !ranks[r] {
				t.Errorf("OnJoin for unexpected rank %d", r)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("OnJoin callback missing")
		}
	}
	// NotifyRank 0: the router rank's own mailbox sees the join messages.
	for i := 0; i < 2; i++ {
		m, err := router.RecvTimeout(AnySource, TagJoin, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !ranks[m.From] {
			t.Errorf("TagJoin from %d", m.From)
		}
	}
	// Traffic flows to and from a dynamically assigned rank.
	if err := router.Send(w1.Rank(), TagTask, []byte("work")); err != nil {
		t.Fatal(err)
	}
	if m, err := w1.Recv(0, TagTask); err != nil || string(m.Data) != "work" {
		t.Fatalf("worker recv: %v %q", err, m.Data)
	}
	// An elastic world has no ranks to claim: only its own process hosts
	// the reserved ones.
	if _, err := DialTCP(addr, 1, 4); err == nil {
		t.Error("a dialer claimed a hosted rank of an elastic world")
	}
}

func TestElasticLeaveNotification(t *testing.T) {
	left := make(chan int, 1)
	world, err := NewElasticTCPRouter(RouterConfig{
		Addr:         "127.0.0.1:0",
		FirstDynamic: 2,
		NotifyRank:   0,
		OnLeave:      func(rank int) { left <- rank },
	})
	if err != nil {
		t.Fatal(err)
	}
	router := world[0]
	defer router.Close()
	addr := listenAddr(t, router)

	w, _, err := JoinTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.RecvTimeout(AnySource, TagJoin, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	w.Close()
	m, err := router.RecvTimeout(AnySource, TagLeave, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != w.Rank() {
		t.Errorf("TagLeave from %d, want %d", m.From, w.Rank())
	}
	select {
	case r := <-left:
		if r != w.Rank() {
			t.Errorf("OnLeave rank %d", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnLeave callback missing")
	}
	// The departed rank is unroutable from every hosted rank, and never
	// reused.
	for _, c := range world {
		if err := c.Send(m.From, TagTask, nil); !errors.Is(err, ErrNoRoute) {
			t.Errorf("rank %d send to departed rank: %v, want ErrNoRoute", c.Rank(), err)
		}
	}
	w2, _, err := JoinTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Rank() == w.Rank() {
		t.Errorf("rank %d reused after departure", w.Rank())
	}
}

// TestHostedJoinsBeforeFirstRecv: the membership rank is a mailbox that
// exists before the listener accepts, so workers that join before its
// owner first calls Recv (reconnecting workers racing a master restart)
// are waiting there, one TagJoin each, and its endpoint reaches the
// dynamically assigned ranks.
func TestHostedJoinsBeforeFirstRecv(t *testing.T) {
	world, err := NewElasticTCPRouter(RouterConfig{Addr: "127.0.0.1:0", FirstDynamic: 2, NotifyRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer world[0].Close()
	addr := listenAddr(t, world[0])
	var joiners []Communicator
	for i := 0; i < 3; i++ {
		w, _, err := JoinTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		joiners = append(joiners, w)
	}
	role := world[1]
	// Notes of different joiners come from different handshake
	// goroutines, so only the set is fixed, not the order.
	pending := map[int]bool{}
	for _, w := range joiners {
		pending[w.Rank()] = true
	}
	for range joiners {
		m, err := role.RecvTimeout(AnySource, AnyTag, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != TagJoin || !pending[m.From] {
			t.Errorf("membership rank received tag %d from %d, want one TagJoin per joiner", m.Tag, m.From)
		}
		delete(pending, m.From)
	}
	w := joiners[2]
	if err := role.Send(w.Rank(), TagTask, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if m, err := w.Recv(1, TagTask); err != nil || string(m.Data) != "hi" {
		t.Fatalf("worker recv from hosted rank: %v %q", err, m.Data)
	}
}

// TestElasticJoinNoteBeforeOnJoin: the membership rank's TagJoin is in
// its mailbox before OnJoin runs, so nothing the callback's owner sends
// that rank afterwards can overtake it. The master's join barrier opens
// from OnJoin; were the note delivered second, a short run could shut
// down the workers the foreman knew of and leave the last joiner to find
// its connection closed.
func TestElasticJoinNoteBeforeOnJoin(t *testing.T) {
	var world []Communicator
	ready := make(chan struct{})
	world, err := NewElasticTCPRouter(RouterConfig{
		Addr:         "127.0.0.1:0",
		FirstDynamic: 2,
		NotifyRank:   1,
		OnJoin: func(int) {
			<-ready
			if err := world[0].Send(1, TagControl, nil); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer world[0].Close()
	close(ready)

	w, _, err := JoinTCP(listenAddr(t, world[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, want := range []Tag{TagJoin, TagControl} {
		m, err := world[1].RecvTimeout(AnySource, AnyTag, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != want {
			t.Fatalf("membership rank received tag %d, want %d first", m.Tag, want)
		}
	}
}

// TestHostedRemoteFIFO: two hosted ranks and two joined ones exchange
// interleaved streams; each (sender, receiver) pair keeps its order in
// both directions, whichever of mailbox append and socket frame carries
// it.
func TestHostedRemoteFIFO(t *testing.T) {
	w := worlds(t, 4)["hosted"] // ranks 0, 1 hosted; 2, 3 joined
	defer closeWorld(w)
	const n = 100
	var wg sync.WaitGroup
	for _, pair := range [][2]int{{0, 2}, {1, 2}, {1, 3}, {2, 1}, {3, 1}, {3, 0}, {0, 1}} {
		from, to := pair[0], pair[1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := w[from].Send(to, TagTask, []byte{byte(i)}); err != nil {
					t.Errorf("%d -> %d: %v", from, to, err)
					return
				}
			}
		}()
	}
	for to, senders := range map[int]int{0: 1, 1: 3, 2: 2, 3: 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := map[int]int{}
			for i := 0; i < senders*n; i++ {
				m, err := w[to].RecvTimeout(AnySource, TagTask, 5*time.Second)
				if err != nil {
					t.Errorf("rank %d: %v", to, err)
					return
				}
				if int(m.Data[0]) != next[m.From] {
					t.Errorf("rank %d: message %d from %d arrived at position %d", to, m.Data[0], m.From, next[m.From])
					return
				}
				next[m.From]++
			}
		}()
	}
	wg.Wait()
}

// TestRouterCloseUnblocksHostedRanks: closing rank 0's endpoint takes the
// world down; every hosted rank blocked in Recv returns ErrClosed, and so
// does a later hosted send.
func TestRouterCloseUnblocksHostedRanks(t *testing.T) {
	world, err := NewElasticTCPRouter(RouterConfig{Addr: "127.0.0.1:0", FirstDynamic: 3, NotifyRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := JoinTCP(listenAddr(t, world[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errc := make(chan error, len(world))
	for _, c := range world {
		go func() {
			_, err := c.Recv(AnySource, TagResult)
			errc <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	world[0].Close()
	for range world {
		select {
		case err := <-errc:
			if err != ErrClosed {
				t.Errorf("err = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a hosted receiver did not unblock")
		}
	}
	if err := world[1].Send(w.Rank(), TagTask, nil); err != ErrClosed {
		t.Errorf("hosted send after close: %v, want ErrClosed", err)
	}
	if err := world[1].Send(2, TagTask, nil); err != ErrClosed {
		t.Errorf("hosted-to-hosted send after close: %v, want ErrClosed", err)
	}
}

func TestRouterSendNoRoute(t *testing.T) {
	router, err := NewTCPRouter("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	err = router.Send(2, TagTask, nil)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("send to unconnected rank: %v, want ErrNoRoute", err)
	}
}

func TestConcurrentSendersStress(t *testing.T) {
	for name, w := range worlds(t, 8) {
		t.Run(name, func(t *testing.T) {
			defer closeWorld(w)
			const per = 50
			var wg sync.WaitGroup
			for r := 1; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := w[r].Send(0, TagResult, []byte{byte(r), byte(i)}); err != nil {
							t.Error(err)
							return
						}
					}
				}(r)
			}
			next := map[int]int{}
			for i := 0; i < 7*per; i++ {
				m, err := w[0].Recv(AnySource, TagResult)
				if err != nil {
					t.Fatal(err)
				}
				if int(m.Data[1]) != next[m.From] {
					t.Fatalf("rank %d message %d arrived at position %d", m.From, m.Data[1], next[m.From])
				}
				next[m.From]++
			}
			wg.Wait()
		})
	}
}

// TestHandshakeRefusesOtherProtocolVersion: the hello's magic is the
// protocol version. A peer built before the slice frames (magic "FDML"),
// before the monitor rank left the welcome payload ("FDM2"), or before
// the welcome became the run's Config ("FDM3"), is
// answered with a refusal that says why and is hung up on — it is never
// registered, so no frame it could not decode is ever sent to it — and a
// dialer of this version that reaches such a peer's router, which hangs up
// without a welcome, reports the version mismatch instead of a bare EOF.
func TestHandshakeRefusesOtherProtocolVersion(t *testing.T) {
	joined := make(chan int, 1)
	world, err := NewElasticTCPRouter(RouterConfig{
		Addr: "127.0.0.1:0", FirstDynamic: 2, NotifyRank: -1,
		OnJoin: func(rank int) { joined <- rank },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer world[0].Close()
	addr := listenAddr(t, world[0])

	// An old worker's hello, byte for byte: version 1, version 2 whose
	// welcome still carried a monitor rank, and version 3, which would
	// read a PHYLIP bundle out of this version's welcome.
	var reply []byte
	for _, magic := range []string{"FDML", "FDM2", "FDM3"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := append([]byte{0, 0, 0, 8, 0xff, 0xff, 0xff, 0xff}, magic...)
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err = io.ReadAll(conn) // until the router hangs up
		if err != nil {
			t.Fatal(err)
		}
		if len(reply) < 8 || int32(binary.BigEndian.Uint32(reply[0:4])) != welcomeRefused {
			t.Fatalf("%s hello answered with %q, want a refusal", magic, reply)
		}
		if reason := string(reply[8:]); int(binary.BigEndian.Uint32(reply[4:8])) != len(reason) ||
			!strings.Contains(reason, "protocol mismatch") || strings.Contains(reason, "\n") {
			t.Errorf("refusal reason %q, want one line naming the protocol mismatch", reason)
		}
		select {
		case rank := <-joined:
			t.Errorf("the refused %s peer joined as rank %d", magic, rank)
		default:
		}
	}

	// A dialer of this version relays a refusal's reason, and says what
	// is likely wrong when an old router hangs up without a welcome.
	for _, c := range []struct{ answer, want string }{
		{string(reply), "protocol mismatch"},
		{"", "another version"},
	} {
		peer, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := peer.Accept()
			if err != nil {
				return
			}
			io.ReadFull(conn, make([]byte, 12))
			conn.Write([]byte(c.answer))
			conn.Close()
		}()
		if _, _, err := JoinTCP(peer.Addr().String()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("join answered with %q: %v, want an error naming %q", c.answer, err, c.want)
		}
		peer.Close()
	}
}
