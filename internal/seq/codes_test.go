package seq

import "testing"

func TestParseBaseSingles(t *testing.T) {
	cases := []struct {
		ch   byte
		want Code
	}{
		{'A', A}, {'a', A}, {'C', C}, {'c', C},
		{'G', G}, {'g', G}, {'T', T}, {'t', T},
		{'U', T}, {'u', T},
	}
	for _, c := range cases {
		got, err := ParseBase(c.ch)
		if err != nil {
			t.Fatalf("ParseBase(%q): %v", c.ch, err)
		}
		if got != c.want {
			t.Errorf("ParseBase(%q) = %v, want %v", c.ch, got, c.want)
		}
	}
}

func TestParseBaseAmbiguity(t *testing.T) {
	cases := []struct {
		ch   byte
		want Code
	}{
		{'R', A | G}, {'Y', C | T}, {'M', A | C}, {'K', G | T},
		{'S', C | G}, {'W', A | T},
		{'B', C | G | T}, {'D', A | G | T}, {'H', A | C | T}, {'V', A | C | G},
		{'N', Any}, {'X', Any}, {'?', Any}, {'-', Any}, {'.', Any},
	}
	for _, c := range cases {
		got, err := ParseBase(c.ch)
		if err != nil {
			t.Fatalf("ParseBase(%q): %v", c.ch, err)
		}
		if got != c.want {
			t.Errorf("ParseBase(%q) = %04b, want %04b", c.ch, got, c.want)
		}
	}
}

func TestParseBaseInvalid(t *testing.T) {
	for _, ch := range []byte{'Z', '1', '*', ' ', 0} {
		if _, err := ParseBase(ch); err == nil {
			t.Errorf("ParseBase(%q): expected error", ch)
		}
	}
}

func TestCharRoundTrip(t *testing.T) {
	// Every valid code maps to a character that parses back to the same
	// code (with Any canonicalized to 'N').
	for c := Code(1); c <= Any; c++ {
		ch := c.Char()
		back, err := ParseBase(ch)
		if err != nil {
			t.Fatalf("code %04b -> char %q unparseable: %v", c, ch, err)
		}
		if back != c {
			t.Errorf("code %04b -> %q -> %04b", c, ch, back)
		}
	}
}

func TestCodeCount(t *testing.T) {
	if Any.Count() != 4 {
		t.Errorf("Any.Count() = %d, want 4", Any.Count())
	}
	if A.Count() != 1 || T.Count() != 1 {
		t.Error("single base Count != 1")
	}
	if (A | G).Count() != 2 {
		t.Errorf("(A|G).Count() = %d, want 2", (A | G).Count())
	}
}

func TestBaseName(t *testing.T) {
	got := []byte{BaseName(0), BaseName(1), BaseName(2), BaseName(3)}
	if string(got) != "ACGT" {
		t.Errorf("BaseName order = %q, want ACGT", got)
	}
}
