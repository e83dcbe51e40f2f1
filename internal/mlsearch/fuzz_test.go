package mlsearch

import (
	"bytes"
	"reflect"
	"testing"
)

// The two slice envelopes are what a TCP peer's TagTask and TagResult
// frames are decoded from, and the welcome is what a joining worker reads
// out of the handshake. Whatever the bytes, the decoders return an error
// rather than panicking or sizing an allocation from a count the payload
// cannot back, and what they accept is stable: it re-encodes to bytes
// that decode to the same value and encode to the same bytes again. The
// committed corpora (testdata/fuzz/) hold, for the slices, an empty
// slice, a count larger than the payload, a negative string length, a
// truncated candidate or length list, an unknown extension tag (accepted
// and dropped) and a valid frame followed by trailing bytes; for the
// welcome, a valid F84 and a valid GTR one, a truncated code matrix, a
// pattern count that with the taxa runs past the payload, a NaN
// frequency, λ₀ = 1, K = 0, a trailing byte, two welcomes in the retired
// FDM4 layout whose precision field (2 and 257) this layout no longer
// has, and one in the retired FDM5 layout whose smooth mode ("zigzag")
// it no longer has.

func FuzzUnmarshalTaskSlice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := unmarshalTasks(data)
		if err != nil {
			if tasks != nil {
				t.Errorf("error %v with %d tasks", err, len(tasks))
			}
			return
		}
		enc := marshalTasks(tasks)
		again, err := unmarshalTasks(enc)
		if err != nil {
			t.Fatalf("re-encoded slice does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, tasks) {
			t.Errorf("slice changed across encode/decode:\n got %+v\nwant %+v", again, tasks)
		}
		if !bytes.Equal(marshalTasks(again), enc) {
			t.Error("slice encoding is not stable")
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
		// Results hold floats (NaN != NaN), so stability is checked on
		// the bytes.
		enc := marshalResults(results)
		again, err := unmarshalResults(enc)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if len(again) != len(results) {
			t.Fatalf("%d results became %d", len(results), len(again))
		}
		if !bytes.Equal(marshalResults(again), enc) {
			t.Error("reply encoding is not stable")
		}
	})
}

func FuzzUnmarshalWelcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		lay, cfg, err := unmarshalWelcome(data)
		if err != nil {
			if !reflect.DeepEqual(lay, Layout{}) || !reflect.DeepEqual(cfg, Config{}) {
				t.Errorf("error %v with layout %+v and a config of %d taxa", err, lay, len(cfg.Taxa))
			}
			return
		}
		// Configs hold floats, so stability is checked on the bytes.
		enc := marshalWelcome(lay, cfg)
		againLay, againCfg, err := unmarshalWelcome(enc)
		if err != nil {
			t.Fatalf("re-encoded welcome does not decode: %v", err)
		}
		if !reflect.DeepEqual(againLay, lay) {
			t.Errorf("layout changed across encode/decode: %+v became %+v", lay, againLay)
		}
		if !bytes.Equal(marshalWelcome(againLay, againCfg), enc) {
			t.Error("welcome encoding is not stable")
		}
	})
}
