package mlsearch

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func TestTaskCodecRoundTrip(t *testing.T) {
	f := func(id, round, job uint64, newick, base string, localTaxon, passes, edge, p, s, ta, tb int32) bool {
		in := Task{ID: id, Round: round, Job: job, Newick: newick, BaseNewick: base, LocalTaxon: localTaxon, Passes: passes,
			InsertEdge: edge, MoveP: p, MoveS: s, MoveTA: ta, MoveTB: tb}
		out, err := UnmarshalTask(MarshalTask(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	f := func(id, round uint64, newick, cause string, lnl float64, ops uint64, worker int32, a, b []int32, l []float64) bool {
		if math.IsNaN(lnl) {
			lnl = -1234.5
		}
		in := Result{TaskID: id, Round: round, Newick: newick, Err: cause, LnL: lnl, Ops: ops, Worker: worker}
		for i := 0; i < len(a) && i < len(b) && i < len(l); i++ {
			if !math.IsNaN(l[i]) {
				in.Lens = append(in.Lens, EdgeLen{A: a[i], B: b[i], Len: l[i]})
			}
		}
		out, err := UnmarshalResult(MarshalResult(in))
		return err == nil && reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sliceOf builds n candidates of one round that share a base tree: the
// first half insertions, the rest moves.
func sliceOf(n int, job, round uint64, base string) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			ID: uint64(100 + i), Round: round, Job: job, BaseNewick: base, LocalTaxon: 7, Passes: 2,
			Trace:      obs.SpanContext{TraceID: 0xabc, SpanID: uint64(i + 1)},
			InsertEdge: int32(i), MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1,
		}
		if i >= n/2 {
			tasks[i].InsertEdge = -1
			tasks[i].MoveP, tasks[i].MoveS, tasks[i].MoveTA, tasks[i].MoveTB = int32(i), int32(i+1), int32(i+2), int32(i+3)
		}
	}
	return tasks
}

// TestTaskSliceCodec: a slice of n candidates round-trips exactly, states
// its base tree once, and is refused by the one-element decoder; the same
// for a reply of n results.
func TestTaskSliceCodec(t *testing.T) {
	base := "(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);"
	in := sliceOf(9, 3, 12, base)
	b := marshalTasks(in)
	if got := bytes.Count(b, []byte(base)); got != 1 {
		t.Errorf("the slice frame holds the base tree %d times, want once", got)
	}
	out, err := unmarshalTasks(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("slice round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	if _, err := UnmarshalTask(b); err == nil {
		t.Error("a slice of nine decoded as one task")
	}

	results := make([]Result, len(in))
	for i, task := range in {
		results[i] = Result{
			TaskID: task.ID, Round: task.Round, Job: task.Job, Trace: task.Trace,
			LnL: -100 - float64(i), Ops: uint64(i), Worker: 4, Eval: time.Duration(i) * time.Microsecond,
			Lens: []EdgeLen{{A: int32(i), B: NodeJunction, Len: 0.25}, {A: NodeJunction, B: NodeNewLeaf, Len: 0.5}},
		}
	}
	results[4] = failedResult(in[4], errors.New("no such edge"))
	rb := marshalResults(results)
	back, err := unmarshalResults(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, results) {
		t.Errorf("reply round trip mismatch:\n got %+v\nwant %+v", back, results)
	}
	if _, err := UnmarshalResult(rb); err == nil {
		t.Error("a reply of nine decoded as one result")
	}
}

func TestTaskCodecRejectsTruncation(t *testing.T) {
	for name, b := range map[string][]byte{
		"task":   MarshalTask(Task{ID: 7, Newick: "(a,b,c);"}),
		"slice":  marshalTasks(sliceOf(3, 1, 1, "(a,b,c);")),
		"result": MarshalResult(Result{TaskID: 7, Newick: "(a,b,c);", Lens: []EdgeLen{{A: 1, B: 2, Len: 3}}, Err: "x"}),
	} {
		decode := func(b []byte) error { _, err := unmarshalTasks(b); return err }
		if name == "result" {
			decode = func(b []byte) error { _, err := unmarshalResults(b); return err }
		}
		for cut := 0; cut < len(b); cut++ {
			if decode(b[:cut]) == nil {
				t.Errorf("%s: truncation at %d bytes accepted", name, cut)
			}
		}
		// Trailing garbage must also be rejected.
		if decode(append(b[:len(b):len(b)], 0xFF)) == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

func TestNormalizeSeed(t *testing.T) {
	cases := map[int64]int64{
		-5: 1, 0: 1, 1: 1, 2: 3, 3: 3, 100: 101, 101: 101,
	}
	for in, want := range cases {
		if got := NormalizeSeed(in); got != want {
			t.Errorf("NormalizeSeed(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTaxonOrderDeterministic(t *testing.T) {
	a := TaxonOrder(20, 7)
	b := TaxonOrder(20, 7)
	c := TaxonOrder(20, 9)
	if len(a) != 20 {
		t.Fatalf("order length %d", len(a))
	}
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed gave different orders")
	}
	if !diff {
		t.Error("different seeds gave identical orders (suspicious)")
	}
	// Must be a permutation.
	seen := map[int]bool{}
	for _, v := range a {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[v] = true
	}
	// Even seeds are adjusted to the next odd seed.
	e := TaxonOrder(20, 6)
	o := TaxonOrder(20, 7)
	for i := range e {
		if e[i] != o[i] {
			t.Error("seed 6 should behave as seed 7")
			break
		}
	}
}

func TestLayoutValidate(t *testing.T) {
	good := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if err := ElasticLayout().Validate(); err != nil {
		t.Errorf("an elastic layout needs no workers up front: %v", err)
	}
	bad := []Layout{
		{Master: 0, Foreman: 0, Workers: []int{1}},
		{Master: 0, Foreman: 1, Workers: nil},
		{Master: 0, Foreman: 1, Workers: []int{2, 2}},
		{Master: 0, Foreman: 1, Workers: []int{1}},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %d should fail: %+v", i, l)
		}
	}
}

func TestDefaultLayout(t *testing.T) {
	// The second argument selects nothing: the monitor is not a rank.
	for _, withMonitor := range []bool{false, true} {
		lay, err := DefaultLayout(4, withMonitor)
		if err != nil {
			t.Fatal(err)
		}
		if lay.Master != 0 || lay.Foreman != 1 || !reflect.DeepEqual(lay.Workers, []int{2, 3}) {
			t.Errorf("layout = %+v", lay)
		}
		if lay.FirstDynamicRank() != 2 {
			t.Errorf("first dynamic rank %d, want 2", lay.FirstDynamicRank())
		}
		if _, err := DefaultLayout(2, withMonitor); err == nil {
			t.Error("a world with no worker rank accepted")
		}
	}
}
