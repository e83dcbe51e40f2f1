package mlsearch

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
)

// The two slice envelopes are what a TCP peer's TagTask and TagResult
// frames are decoded from, and the welcome is what a joining worker reads
// out of the handshake. Whatever the bytes, the decoders return an error
// rather than panicking or sizing an allocation from a count the payload
// cannot back. A slice frame holds exactly its fields — the handshake
// magic is the wire's only version, so there is nothing to skip — and
// an accepted one is byte for byte the encoding of what it decodes to. A
// welcome that is accepted re-encodes to bytes that decode and encode to
// the same bytes again. The committed corpora (testdata/fuzz/) hold, for
// the slices, an empty slice, a count larger than the payload, a
// negative string length, a truncated candidate or length list, a frame
// of the retired FDM6 layout with an extension field and a valid frame
// followed by trailing bytes; for the welcome, a valid F84 and a valid
// GTR one, a truncated code matrix, a pattern count that with the taxa
// runs past the payload, a NaN frequency, λ₀ = 1, K = 0, a trailing
// byte, two welcomes in the retired FDM4 layout whose precision field (2
// and 257) this layout no longer has, and one in the retired FDM5 layout
// whose smooth mode ("zigzag") it no longer has.

func FuzzUnmarshalTaskSlice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := unmarshalTasks(data)
		if err != nil {
			if tasks != nil {
				t.Errorf("error %v with %d tasks", err, len(tasks))
			}
			return
		}
		if enc := marshalTasks(tasks); !bytes.Equal(enc, data) {
			t.Errorf("accepted slice is not the encoding of its decode:\n got %x\nfrom %x", enc, data)
		}
	})
}

func FuzzUnmarshalResultSlice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := unmarshalResults(data)
		if err != nil {
			if results != nil {
				t.Errorf("error %v with %d results", err, len(results))
			}
			return
		}
		if enc := marshalResults(results); !bytes.Equal(enc, data) {
			t.Errorf("accepted reply is not the encoding of its decode:\n got %x\nfrom %x", enc, data)
		}
	})
}

func FuzzUnmarshalWelcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := unmarshalWelcome(data)
		if err != nil {
			if !reflect.DeepEqual(cfg, Config{}) {
				t.Errorf("error %v with a config of %d taxa", err, len(cfg.Taxa))
			}
			return
		}
		// Configs hold floats, so stability is checked on the bytes.
		enc := marshalWelcome(cfg)
		again, err := unmarshalWelcome(enc)
		if err != nil {
			t.Fatalf("re-encoded welcome does not decode: %v", err)
		}
		if !bytes.Equal(marshalWelcome(again), enc) {
			t.Error("welcome encoding is not stable")
		}
	})
}

// A restart file is handed to the program by a user (-resume) or read
// back from a daemon's data directory. ReadManifest returns an error
// rather than panicking, and what it accepts is stable: WriteManifest of
// it reads back, and writing that again gives the same bytes. The
// committed corpus holds a real one-jumble and a real three-jumble
// manifest, the latter cut off inside its second block, and the former
// with its seed key repeated.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a manifest", err)
			}
			return
		}
		var once bytes.Buffer
		if err := WriteManifest(&once, m); err != nil {
			t.Fatalf("accepted manifest does not write: %v", err)
		}
		back, err := ReadManifest(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("written manifest does not read back: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteManifest(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
	})
}

// A worker's reply is bytes of its choosing, and the foreman files each
// result it decodes in one slot of the open round by task ID. Whatever
// the reply — a task ID of 0, below the round's first or past its last,
// another job's or another round's header, duplicates, a failure — the
// foreman must not panic, a filled slot holds its own task's result (its
// ID and round), and
// answered counts the filled slots. After it, an honest reply of every
// result answers the round in task order, unless the reply failed a task
// of the round, which answers it with the failure. Each byte of ids is a
// result: its low seven bits the task ID (the round's are 5…10), its top
// bit a failure with text failure. The committed corpus holds each of
// those cases and an honest partial reply.
func FuzzForemanResults(f *testing.F) {
	f.Fuzz(func(t *testing.T, ids []byte, job, round uint64, failure string) {
		if len(ids) == 0 {
			return
		}
		fm := NewForeman(nil, Layout{Workers: []int{2}}, Config{}, ForemanOptions{}, nil)
		tasks := sliceOf(6, 1, 1, "(a,b,c);")
		for i := range tasks {
			tasks[i].ID = uint64(5 + i)
		}
		reply := fm.startTestJob(1, tasks)
		js, slice := fm.nextSlice(1)
		fm.ready = nil
		fm.busy[2] = []dispatchRecord{{tasks: slice, sent: time.Now()}}
		fm.inflight = 1

		results := make([]Result, len(ids))
		for i, b := range ids {
			results[i] = Result{TaskID: uint64(b & 0x7f), Job: job, Round: round, LnL: -float64(b)}
			if b&0x80 != 0 {
				results[i].Err = failure
			}
		}
		if !fm.handleResult(comm.Message{From: 2, Tag: comm.TagResult, Data: marshalResults(results)}) {
			t.Fatal("an encoded reply was refused")
		}
		filled := 0
		for i, r := range js.results {
			if r.TaskID == 0 {
				continue
			}
			filled++
			if r.TaskID != tasks[i].ID || r.Round != tasks[i].Round {
				t.Fatalf("slot %d holds the result of task %d of round %d", i, r.TaskID, r.Round)
			}
		}
		if filled != js.answered {
			t.Fatalf("%d slots filled, %d answered", filled, js.answered)
		}

		failed := js.err != nil
		fm.handleResult(comm.Message{From: 2, Tag: comm.TagResult, Data: marshalResults(cannedResults(tasks))})
		fm.flush()
		var r roundReply
		select {
		case r = <-reply:
		default:
			t.Fatal("the round was not answered")
		}
		if failed {
			if r.err == nil || !strings.Contains(r.err.Error(), failure) {
				t.Fatalf("failed round answered with %v", r.err)
			}
			return
		}
		if r.err != nil || len(r.results) != len(tasks) {
			t.Fatalf("round answered with %d results and %v", len(r.results), r.err)
		}
		for i, res := range r.results {
			if res.TaskID != tasks[i].ID {
				t.Fatalf("result %d is task %d's", i, res.TaskID)
			}
		}
	})
}
