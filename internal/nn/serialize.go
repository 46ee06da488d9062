package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// snapshot is the on-disk representation of a parameter set.
type snapshot struct {
	Names  []string
	Rows   []int
	Cols   []int
	Values [][]float64
}

// Save writes the parameters to w in gob format. Parameter names must be
// unique; they are the keys used by Load.
func Save(w io.Writer, params []*Param) error {
	if err := checkUniqueNames(params); err != nil {
		return err
	}
	var s snapshot
	for _, p := range params {
		s.Names = append(s.Names, p.Name)
		s.Rows = append(s.Rows, p.Var.Value.Rows)
		s.Cols = append(s.Cols, p.Var.Value.Cols)
		s.Values = append(s.Values, slices.Clone(p.Var.Value.Data))
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reads a parameter snapshot from r and copies the stored weights into
// the matching (by name) parameters. Every parameter in params must be
// present in the snapshot with identical shape.
func Load(r io.Reader, params []*Param) error {
	if err := checkUniqueNames(params); err != nil {
		return err
	}
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	if len(s.Rows) != len(s.Names) || len(s.Cols) != len(s.Names) || len(s.Values) != len(s.Names) {
		return fmt.Errorf("nn: corrupt snapshot: %d names but %d/%d/%d rows/cols/values",
			len(s.Names), len(s.Rows), len(s.Cols), len(s.Values))
	}
	byName := make(map[string]int, len(s.Names))
	for i, n := range s.Names {
		byName[n] = i
	}
	for _, p := range params {
		i, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: snapshot is missing parameter %q", p.Name)
		}
		v := p.Var.Value
		if s.Rows[i] != v.Rows || s.Cols[i] != v.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, snapshot has %dx%d",
				p.Name, v.Rows, v.Cols, s.Rows[i], s.Cols[i])
		}
		if len(s.Values[i]) != s.Rows[i]*s.Cols[i] {
			return fmt.Errorf("nn: parameter %q: snapshot holds %d values for a %dx%d matrix (truncated or corrupt)",
				p.Name, len(s.Values[i]), s.Rows[i], s.Cols[i])
		}
		copy(v.Data, s.Values[i])
	}
	return nil
}
