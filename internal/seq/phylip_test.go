package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

const interleavedSample = `  5    20
Alpha     AACGTGGCCA AAT
Beta      AAGGTCGCCA AAC
Gamma     CATTTCGTCA CAA
Delta     GGTATTTCGG CCT
Epsilon   GGGATCTCGG CCC

TACTGAT
TACTGTC
GACTGAC
AACTGAC
GACTGAC
`

const sequentialSample = `5 20
Alpha     AACGTGGCCA
AATTACTGAT
Beta      AAGGTCGCCAAACTACTGTC
Gamma     CATTTCGTCA
CAAGACTGAC
Delta     GGTATTTCGGCCTAACTGAC
Epsilon   GGGATCTCGG
CCCGACTGAC
`

func TestReadPhylipDetectsInterleaved(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(interleavedSample))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSeqs() != 5 || a.NumSites() != 20 {
		t.Fatalf("got %d seqs x %d sites, want 5x20", a.NumSeqs(), a.NumSites())
	}
	if a.Names[0] != "Alpha" || a.Names[4] != "Epsilon" {
		t.Errorf("names = %v", a.Names)
	}
	if got := a.Row(0); got != "AACGTGGCCAAATTACTGAT" {
		t.Errorf("row 0 = %q", got)
	}
	if got := a.Row(4); got != "GGGATCTCGGCCCGACTGAC" {
		t.Errorf("row 4 = %q", got)
	}
}

func TestReadPhylipDetectsSequential(t *testing.T) {
	a, err := ReadPhylip(strings.NewReader(sequentialSample))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadPhylip(strings.NewReader(interleavedSample))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Row(i) != b.Row(i) {
			t.Errorf("sequential row %d = %q, interleaved = %q", i, a.Row(i), b.Row(i))
		}
	}
}

func TestReadPhylipErrors(t *testing.T) {
	bad := []string{
		"",
		"junk header\nAAA",
		"2 4\nA AAAA\n", // missing second taxon
		"1 4\nTax1 AZ-T\n",
		"2 3\nTax1 AAAA\nTax2 CCC\n", // too many sites
	}
	for _, s := range bad {
		if _, err := ReadPhylip(strings.NewReader(s)); err == nil {
			t.Errorf("ReadPhylip(%q): expected error", s)
		}
	}
}

func TestPhylipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAlignment(6)
	letters := "ACGTRYN-"
	for i := 0; i < 6; i++ {
		var b strings.Builder
		for s := 0; s < 137; s++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		name := string(rune('A'+i)) + "_taxon"
		if err := a.Add(name, b.String()); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WritePhylip(&buf, a, 50); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPhylip(&buf)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, buf.String())
	}
	if back.NumSeqs() != a.NumSeqs() || back.NumSites() != a.NumSites() {
		t.Fatalf("round trip shape mismatch")
	}
	for i := range a.Data {
		if back.Names[i] != a.Names[i] {
			t.Errorf("name %d: %q != %q", i, back.Names[i], a.Names[i])
		}
		// '-' and '.' canonicalize to 'N' (same code), so compare codes.
		for s := range a.Data[i] {
			if back.Data[i][s] != a.Data[i][s] {
				t.Errorf("seq %d site %d: %v != %v", i, s, back.Data[i][s], a.Data[i][s])
			}
		}
	}
}

func TestReadPhylipStrictNames(t *testing.T) {
	// Strict 10-column names with an embedded blank.
	in := "2 8\nHomo sapieAACGTACG\nPan trog  CCCGTACG\n"
	a, err := ReadPhylip(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Names[0] != "Homo sapie" || a.Names[1] != "Pan trog" {
		t.Errorf("names = %q", a.Names)
	}
	if a.Row(0) != "AACGTACG" {
		t.Errorf("row 0 = %q", a.Row(0))
	}
}

func TestWriteFastaGolden(t *testing.T) {
	a := NewAlignment(2)
	for _, rec := range []struct{ name, s string }{
		{"one", strings.Repeat("ACGT", 18)},
		{"two", strings.Repeat("TTGN", 17) + "-AYC"},
	} {
		if err := a.Add(rec.name, rec.s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, a); err != nil {
		t.Fatal(err)
	}
	// 70 columns a line; a gap is stored as N and written so.
	want := ">one\n" + strings.Repeat("ACGT", 17) + "AC\nGT\n" +
		">two\n" + strings.Repeat("TTGN", 17) + "NA\nYC\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteFasta =\n%s\nwant\n%s", got, want)
	}
}

func TestAlignmentValidate(t *testing.T) {
	a := NewAlignment(2)
	if err := a.Validate(); err == nil {
		t.Error("empty alignment should not validate")
	}
	_ = a.Add("x", "ACGT")
	if err := a.Validate(); err != nil {
		t.Errorf("valid single-sequence alignment: %v", err)
	}
	if err := a.Add("x", "ACGT"); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err == nil {
		t.Error("duplicate names should not validate")
	}
}

func TestAlignmentClone(t *testing.T) {
	a := NewAlignment(1)
	_ = a.Add("a", "ACGT")
	b := a.Clone()
	b.Data[0][0] = T
	if a.Data[0][0] != A {
		t.Error("Clone shares storage")
	}
}
