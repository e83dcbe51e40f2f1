package mlsearch

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seq"
)

// The handshake magic is the wire's only version: a peer of another
// magic is turned away at the hello, and a peer of the same magic decodes
// every frame field for field, with nothing skipped. So the magic must
// change whenever the bytes of a frame do. testdata/wire_golden.txt holds
// the magic a worker's hello carries and the exact bytes of one fixed
// task slice, result slice and welcome; regenerate it with
//
//	go test -run TestWireGolden ./internal/mlsearch/ -update
//
// after bumping the magic (comm's tcpMagic).

const wireGoldenFile = "testdata/wire_golden.txt"

// helloMagic returns the magic of the hello comm.JoinTCP sends, read off
// the socket by a listener that then hangs up.
func helloMagic(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			hello <- nil
			return
		}
		defer conn.Close()
		b := make([]byte, 12)
		if _, err := io.ReadFull(conn, b); err != nil {
			b = nil
		}
		hello <- b
	}()
	if _, _, err := comm.JoinTCP(ln.Addr().String()); err == nil {
		t.Fatal("a listener that hangs up was joined")
	}
	b := <-hello
	if b == nil {
		t.Fatal("no hello read")
	}
	return string(b[8:12])
}

// wireGoldenFrames encodes the fixed frames, in file order.
func wireGoldenFrames() [][2]string {
	base := "((a:0.1,b:0.2):0.05,c:0.3,d:0.4);"
	tasks := []Task{
		{ID: 11, Round: 3, Job: 2, BaseNewick: base, LocalTaxon: 4, Passes: 2, InsertEdge: 1, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1,
			Trace: obs.SpanContext{TraceID: 0x7a, SpanID: 0x7b}},
		{ID: 12, Round: 3, Job: 2, BaseNewick: base, LocalTaxon: 4, Passes: 2, InsertEdge: 2, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1,
			Trace: obs.SpanContext{TraceID: 0x7a, SpanID: 0x7c}},
	}
	results := []Result{
		{TaskID: 11, Round: 3, Job: 2, LnL: -1234.5, Ops: 96, CacheHits: 5, CacheMisses: 2, Eval: 1500, NewtonIters: 7,
			Lens:  []EdgeLen{{A: 1, B: NodeJunction, Len: 0.125}, {A: NodeJunction, B: NodeNewLeaf, Len: 0.25}},
			Trace: obs.SpanContext{TraceID: 0x7a, SpanID: 0x7b}},
		{TaskID: 12, Round: 3, Job: 2, Err: "no such edge", Trace: obs.SpanContext{TraceID: 0x7a, SpanID: 0x7c}},
	}
	welcome := Config{
		Taxa: []string{"a", "b", "c", "d"},
		Patterns: &seq.Patterns{
			Codes:   [][]seq.Code{{1, 2}, {1, 4}, {2, 8}, {seq.Any, 8}},
			Weights: []float64{2, 1},
			Rates:   []float64{1, 0.5},
		},
		Model:  model.NewJC69(),
		Engine: "reference",
	}
	return [][2]string{
		{"task", hex.EncodeToString(marshalTasks(tasks))},
		{"result", hex.EncodeToString(marshalResults(results))},
		{"welcome", hex.EncodeToString(marshalWelcome(welcome))},
	}
}

// TestWireGolden: while the magic stays what the golden file says, every
// frame must encode to the golden bytes; a frame that changes without a
// new magic would let peers of two builds exchange frames neither can
// read.
func TestWireGolden(t *testing.T) {
	magic := helloMagic(t)
	frames := wireGoldenFrames()
	var cur bytes.Buffer
	fmt.Fprintf(&cur, "magic %s\n", magic)
	for _, f := range frames {
		fmt.Fprintf(&cur, "%s %s\n", f[0], f[1])
	}
	path := filepath.FromSlash(wireGoldenFile)
	if *updateGolden {
		if err := os.WriteFile(path, cur.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, val, _ := strings.Cut(line, " ")
		golden[key] = val
	}
	if golden["magic"] != magic {
		t.Fatalf("the hello's magic is %q, the golden file's %q: regenerate %s with -update", magic, golden["magic"], wireGoldenFile)
	}
	for _, f := range frames {
		if golden[f[0]] != f[1] {
			t.Errorf("the %s frame's bytes changed but the magic is still %q: bump tcpMagic in internal/comm/tcp.go, then regenerate %s with -update\n got %s\nwant %s",
				f[0], magic, wireGoldenFile, f[1], golden[f[0]])
		}
	}
}
