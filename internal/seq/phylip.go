package seq

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PHYLIP file support.
//
// fastDNAml reads PHYLIP format DNA (or RNA) sequence files (paper §2.1).
// Both the interleaved and the sequential layouts are accepted, and names
// may be either strict (exactly 10 columns, possibly containing blanks) or
// relaxed (whitespace-terminated). ReadPhylip auto-detects the layout by
// attempting a sequential parse first and falling back to interleaved;
// ReadPhylipSequential and ReadPhylipInterleaved force a layout.

// phylipNameLen is the strict PHYLIP name field width.
const phylipNameLen = 10

// phylipFile is the tokenized form shared by both layout parsers.
type phylipFile struct {
	ntax, nsites int
	lines        []string
}

func loadPhylip(r io.Reader) (*phylipFile, error) {
	br := bufio.NewReader(r)
	ntax, nsites, err := readPhylipHeader(br)
	if err != nil {
		return nil, err
	}
	f := &phylipFile{ntax: ntax, nsites: nsites}
	for {
		line, err := br.ReadString('\n')
		if line != "" {
			trimmed := strings.TrimRight(line, "\r\n")
			if strings.TrimSpace(trimmed) != "" {
				f.lines = append(f.lines, trimmed)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("phylip: %w", err)
		}
	}
	if len(f.lines) < ntax {
		return nil, fmt.Errorf("phylip: expected at least %d sequence lines, found %d", ntax, len(f.lines))
	}
	return f, nil
}

// ReadPhylip parses a PHYLIP alignment, auto-detecting the layout.
func ReadPhylip(r io.Reader) (*Alignment, error) {
	f, err := loadPhylip(r)
	if err != nil {
		return nil, err
	}
	a, seqErr := f.parseSequential()
	if seqErr == nil {
		return a, nil
	}
	a, intErr := f.parseInterleaved()
	if intErr == nil {
		return a, nil
	}
	return nil, fmt.Errorf("phylip: not sequential (%v) and not interleaved (%v)", seqErr, intErr)
}

// ReadPhylipSequential parses a PHYLIP alignment in sequential layout.
func ReadPhylipSequential(r io.Reader) (*Alignment, error) {
	f, err := loadPhylip(r)
	if err != nil {
		return nil, err
	}
	return f.parseSequential()
}

// ReadPhylipInterleaved parses a PHYLIP alignment in interleaved layout.
func ReadPhylipInterleaved(r io.Reader) (*Alignment, error) {
	f, err := loadPhylip(r)
	if err != nil {
		return nil, err
	}
	return f.parseInterleaved()
}

// parseSequential reads one taxon at a time: a name line followed by
// continuation lines until the sequence reaches nsites.
func (f *phylipFile) parseSequential() (*Alignment, error) {
	names := make([]string, f.ntax)
	rows := make([][]Code, f.ntax)
	li := 0
	for t := 0; t < f.ntax; t++ {
		if li >= len(f.lines) {
			return nil, fmt.Errorf("phylip: ran out of lines at taxon %d", t+1)
		}
		name, bases, err := splitPhylipNameLine(f.lines[li])
		li++
		if err != nil {
			return nil, fmt.Errorf("phylip: taxon %d: %w", t+1, err)
		}
		names[t] = name
		rows[t], err = appendCoded(nil, bases, f.nsites)
		if err != nil {
			return nil, fmt.Errorf("phylip: sequence %q: %w", name, err)
		}
		for len(rows[t]) < f.nsites {
			if li >= len(f.lines) {
				return nil, fmt.Errorf("phylip: sequence %q has %d sites, header promised %d", name, len(rows[t]), f.nsites)
			}
			rows[t], err = appendCoded(rows[t], f.lines[li], f.nsites)
			li++
			if err != nil {
				return nil, fmt.Errorf("phylip: sequence %q: %w", name, err)
			}
		}
	}
	if li != len(f.lines) {
		return nil, fmt.Errorf("phylip: %d trailing lines after last sequence", len(f.lines)-li)
	}
	a := &Alignment{Names: names, Data: rows}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// parseInterleaved reads the first ntax lines as name lines and then cycles
// through the taxa for each subsequent block line.
func (f *phylipFile) parseInterleaved() (*Alignment, error) {
	names := make([]string, f.ntax)
	rows := make([][]Code, f.ntax)
	for t := 0; t < f.ntax; t++ {
		name, bases, err := splitPhylipNameLine(f.lines[t])
		if err != nil {
			return nil, fmt.Errorf("phylip: line %d: %w", t+2, err)
		}
		names[t] = name
		rows[t], err = appendCoded(nil, bases, f.nsites)
		if err != nil {
			return nil, fmt.Errorf("phylip: sequence %q: %w", name, err)
		}
	}
	for i, line := range f.lines[f.ntax:] {
		t := i % f.ntax
		var err error
		rows[t], err = appendCoded(rows[t], line, f.nsites)
		if err != nil {
			return nil, fmt.Errorf("phylip: sequence %q: %w", names[t], err)
		}
	}
	for t := range rows {
		if len(rows[t]) != f.nsites {
			return nil, fmt.Errorf("phylip: sequence %q has %d sites, header promised %d", names[t], len(rows[t]), f.nsites)
		}
	}
	a := &Alignment{Names: names, Data: rows}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// readPhylipHeader parses the "ntax nsites" line, skipping blank lines.
func readPhylipHeader(br *bufio.Reader) (ntax, nsites int, err error) {
	for {
		line, err := br.ReadString('\n')
		s := strings.TrimSpace(line)
		if s != "" {
			fields := strings.Fields(s)
			if len(fields) < 2 {
				return 0, 0, fmt.Errorf("phylip: bad header %q", s)
			}
			ntax, err1 := strconv.Atoi(fields[0])
			nsites, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || ntax <= 0 || nsites <= 0 {
				return 0, 0, fmt.Errorf("phylip: bad header %q", s)
			}
			return ntax, nsites, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("phylip: missing header: %w", err)
		}
	}
}

// splitPhylipNameLine separates the name field from the sequence data on
// the first line of a taxon. Relaxed names end at the first whitespace;
// strict 10-column names are used when the relaxed interpretation yields
// sequence text that is not valid nucleotide data.
func splitPhylipNameLine(line string) (name, bases string, err error) {
	trimmed := strings.TrimLeft(line, " \t")
	if trimmed == "" {
		return "", "", fmt.Errorf("blank sequence line")
	}
	// A blank strict name field starts a continuation line, never a
	// taxon: WritePhylip indents every block after the first this way,
	// and without the rule a sequential reading of its output could
	// succeed with sequence data for names.
	if len(line) >= phylipNameLen && strings.Trim(line[:phylipNameLen], " \t") == "" {
		return "", "", fmt.Errorf("blank name field in %q", line)
	}
	idx := strings.IndexAny(trimmed, " \t")
	if idx < 0 {
		// No whitespace: strict format with the sequence glued to a
		// 10-character name, or a name-only line.
		if len(trimmed) > phylipNameLen {
			return strings.TrimSpace(trimmed[:phylipNameLen]), trimmed[phylipNameLen:], nil
		}
		return trimmed, "", nil
	}
	name = trimmed[:idx]
	rest := trimmed[idx:]
	if allBaseChars(rest) {
		return name, rest, nil
	}
	// Fall back to strict names ("Homo sapiens" style with embedded blanks).
	if len(line) > phylipNameLen {
		strictName := strings.TrimSpace(line[:phylipNameLen])
		strictRest := line[phylipNameLen:]
		if strictName != "" && allBaseChars(strictRest) {
			return strictName, strictRest, nil
		}
	}
	return "", "", fmt.Errorf("cannot parse name/sequence from %q", line)
}

func allBaseChars(s string) bool {
	seen := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch == ' ' || ch == '\t' {
			continue
		}
		if !IsBaseChar(ch) {
			return false
		}
		seen = true
	}
	return seen
}

// appendCoded appends the coded bases of text to row, erroring if the row
// would exceed nsites.
func appendCoded(row []Code, text string, nsites int) ([]Code, error) {
	for i := 0; i < len(text); i++ {
		ch := text[i]
		if ch == ' ' || ch == '\t' {
			continue
		}
		c, err := ParseBase(ch)
		if err != nil {
			return row, err
		}
		if len(row) >= nsites {
			return row, fmt.Errorf("more than %d sites", nsites)
		}
		row = append(row, c)
	}
	return row, nil
}

// WritePhylip writes the alignment in interleaved PHYLIP format with
// relaxed names, blockWidth sites per line (60 when blockWidth <= 0).
func WritePhylip(w io.Writer, a *Alignment, blockWidth int) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if blockWidth <= 0 {
		blockWidth = 60
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", a.NumSeqs(), a.NumSites())
	nameWidth := phylipNameLen
	for _, n := range a.Names {
		if len(n) >= nameWidth {
			nameWidth = len(n) + 1
		}
	}
	nsites := a.NumSites()
	for start := 0; start < nsites; start += blockWidth {
		end := start + blockWidth
		if end > nsites {
			end = nsites
		}
		for i := range a.Data {
			if start == 0 {
				fmt.Fprintf(bw, "%-*s", nameWidth, a.Names[i])
			} else {
				fmt.Fprintf(bw, "%-*s", nameWidth, "")
			}
			for s := start; s < end; s++ {
				bw.WriteByte(a.Data[i][s].Char())
			}
			bw.WriteByte('\n')
		}
		if end < nsites {
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
