package comm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds readFrame what a TCP peer may send: it is the one
// parser in this package that faces the network. Whatever the bytes, it
// returns an error rather than panicking (its one allocation is bounded
// by maxFrameSize), and a frame it accepts has exactly the payload its length prefix declared and
// re-encodes to the bytes it was read from. The committed corpus
// (testdata/fuzz/FuzzReadFrame) holds a short header, lengths below the
// routing header and above maxFrameSize, a truncated payload and valid
// frames.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		from, to, tag, payload, err := readFrame(r)
		if err != nil {
			if payload != nil {
				t.Errorf("error %v with a %d-byte payload", err, len(payload))
			}
			return
		}
		declared := int(binary.BigEndian.Uint32(data)) - 12
		if len(payload) != declared {
			t.Fatalf("payload of %d bytes, frame declared %d", len(payload), declared)
		}
		if consumed := len(data) - r.Len(); consumed != 16+declared {
			t.Errorf("consumed %d bytes of a %d-byte frame", consumed, 16+declared)
		}
		var out bytes.Buffer
		if err := writeFrame(&out, from, to, tag, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:16+declared]) {
			t.Errorf("frame does not round-trip: read %x, wrote %x", data[:16+declared], out.Bytes())
		}
		PutBuf(payload)
	})
}
