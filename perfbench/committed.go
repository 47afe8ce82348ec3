package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Committed result tables, read from the repository root. Every flow
// run is checked against the row of its circuit.
const (
	table56File = "results_table5_6.txt"
	table7File  = "results_table7.txt"
)

// committedRow is the part of a committed table row a flow run must
// reproduce exactly.
type committedRow struct {
	Lens rowLens `json:"lens"` // test, scan, restor, scan, omit, scan
	// Detected is Table 5's "total" column (faults the generated
	// sequence detects); 0 when the table has no such column.
	Detected int `json:"detected,omitempty"`
}

// loadCommitted returns the committed row of circuit for the flow.
func loadCommitted(f flowSpec) (committedRow, error) {
	if f.translate {
		t7, err := readTable(table7File, "Table 7", f.circuit)
		if err != nil {
			return committedRow{}, err
		}
		lens, err := atois(t7, 1, 7)
		if err != nil {
			return committedRow{}, fmt.Errorf("%s row %s: %w", table7File, f.circuit, err)
		}
		return committedRow{Lens: rowLens(lens)}, nil
	}
	t5, err := readTable(table56File, "Table 5", f.circuit)
	if err != nil {
		return committedRow{}, err
	}
	t6, err := readTable(table56File, "Table 6", f.circuit)
	if err != nil {
		return committedRow{}, err
	}
	det, err := atois(t5, 4, 5)
	if err != nil {
		return committedRow{}, fmt.Errorf("%s Table 5 row %s: %w", table56File, f.circuit, err)
	}
	lens, err := atois(t6, 1, 7)
	if err != nil {
		return committedRow{}, fmt.Errorf("%s Table 6 row %s: %w", table56File, f.circuit, err)
	}
	return committedRow{Lens: rowLens(lens), Detected: det[0]}, nil
}

// readTable returns the whitespace-separated fields of circuit's row in
// the table whose title line starts with title.
func readTable(path, title, circuit string) ([]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("committed results: %w", err)
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Table ") {
			in = strings.HasPrefix(line, title+":")
			continue
		}
		if f := strings.Fields(line); in && len(f) > 0 && f[0] == circuit {
			return f, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("committed results: %w", err)
	}
	return nil, fmt.Errorf("committed results: no %s row for %s in %s", title, circuit, path)
}

// atois parses fields[from:to] as integers.
func atois(fields []string, from, to int) ([]int, error) {
	if len(fields) < to {
		return nil, fmt.Errorf("row has %d fields, want at least %d", len(fields), to)
	}
	out := make([]int, 0, to-from)
	for _, s := range fields[from:to] {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
