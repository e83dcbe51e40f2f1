package mlsearch

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

// Codec round-trip benchmarks for the pooled wire buffers. The
// "recycled" variants follow the runtime's ownership protocol (PutBuf
// once the frame is sent/decoded), so marshalling reuses pool memory;
// the "fresh" variants leak every buffer, forcing the pool to allocate
// each round trip — the steady state before this change. The per-op
// alloc delta between the two is the win. Run via make bench.

func benchTask() Task {
	return Task{
		ID: 712, Round: 9,
		BaseNewick: "(" + strings.Repeat("(a:0.1,b:0.2):0.3,", 40) + "c:0.1);",
		LocalTaxon: 37, InsertEdge: 12, Passes: 2,
	}
}

func BenchmarkTaskCodecRecycled(b *testing.B) {
	t := benchTask()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := MarshalTask(t)
		if _, err := UnmarshalTask(buf); err != nil {
			b.Fatal(err)
		}
		comm.PutBuf(buf)
	}
}

func BenchmarkTaskCodecFresh(b *testing.B) {
	t := benchTask()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := MarshalTask(t)
		if _, err := UnmarshalTask(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultCodecRecycled(b *testing.B) {
	res := Result{
		TaskID: 712, Round: 9, LnL: -15234.25, Ops: 4096,
		Lens: make([]EdgeLen, 12),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := MarshalResult(res)
		if _, err := UnmarshalResult(buf); err != nil {
			b.Fatal(err)
		}
		comm.PutBuf(buf)
	}
}
