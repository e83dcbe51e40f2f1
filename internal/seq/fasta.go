package seq

import (
	"bufio"
	"fmt"
	"io"
)

// WriteFasta writes the alignment as FASTA with 70 columns per line.
func WriteFasta(w io.Writer, a *Alignment) error {
	if err := a.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	const width = 70
	for i := range a.Data {
		fmt.Fprintf(bw, ">%s\n", a.Names[i])
		row := a.Row(i)
		for start := 0; start < len(row); start += width {
			end := start + width
			if end > len(row) {
				end = len(row)
			}
			bw.WriteString(row[start:end])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
