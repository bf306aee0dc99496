package task

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"predrm/internal/platform"
)

// ErrPlatformLayout is returned by Write for a platform whose resource
// order the cpus/gpus header cannot reproduce: Read rebuilds CPUs first,
// so a set on a GPU-first or interleaved platform ("1g2c", "2c1g2c")
// would read back with its WCET/energy columns bound to other resources.
var ErrPlatformLayout = errors.New("task: platform layout not representable as cpus+gpus")

// setJSON is the serialised form of a Set. Executability is encoded by
// substituting nulls for NotExecutable (MaxFloat64 does not round-trip
// through JSON).
type setJSON struct {
	CPUs  int        `json:"cpus"`
	GPUs  int        `json:"gpus"`
	Types []typeJSON `json:"types"`
}

type typeJSON struct {
	ID        int        `json:"id"`
	WCET      []*float64 `json:"wcet"`
	Energy    []*float64 `json:"energy"`
	MigTime   float64    `json:"migTime"`
	MigEnergy float64    `json:"migEnergy"`
}

func encodeVals(vals []float64) []*float64 {
	out := make([]*float64, len(vals))
	for i, v := range vals {
		if v != NotExecutable {
			v := v
			out[i] = &v
		}
	}
	return out
}

func decodeVals(vals []*float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v == nil {
			out[i] = NotExecutable
		} else {
			out[i] = *v
		}
	}
	return out
}

// Write serialises the set (platform shape and all types) as JSON. The
// shape is stored as cpus/gpus counts, so only CPU-first platforms can be
// written; any other layout fails with ErrPlatformLayout.
func (s *Set) Write(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	doc := setJSON{CPUs: s.Platform.NumCPUs(), GPUs: s.Platform.NumGPUs()}
	if spec := s.Platform.Spec(); spec != platform.New(doc.CPUs, doc.GPUs).Spec() {
		return fmt.Errorf("%w: %s", ErrPlatformLayout, spec)
	}
	for _, ty := range s.Types {
		doc.Types = append(doc.Types, typeJSON{
			ID:        ty.ID,
			WCET:      encodeVals(ty.WCET),
			Energy:    encodeVals(ty.Energy),
			MigTime:   ty.MigTime,
			MigEnergy: ty.MigEnergy,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("task: encode: %w", err)
	}
	return nil
}

// Read parses a JSON task set and validates it.
func Read(r io.Reader) (*Set, error) {
	var doc setJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("task: decode: %w", err)
	}
	if doc.CPUs < 0 || doc.GPUs < 0 || doc.CPUs+doc.GPUs == 0 {
		return nil, fmt.Errorf("task: invalid platform shape %d CPUs + %d GPUs", doc.CPUs, doc.GPUs)
	}
	s := &Set{Platform: platform.New(doc.CPUs, doc.GPUs)}
	for _, tj := range doc.Types {
		for _, v := range append(append([]*float64{}, tj.WCET...), tj.Energy...) {
			if v != nil && (math.IsNaN(*v) || math.IsInf(*v, 0)) {
				return nil, fmt.Errorf("task: type %d has non-finite value", tj.ID)
			}
		}
		s.Types = append(s.Types, &Type{
			ID:        tj.ID,
			WCET:      decodeVals(tj.WCET),
			Energy:    decodeVals(tj.Energy),
			MigTime:   tj.MigTime,
			MigEnergy: tj.MigEnergy,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteFile writes the set to the named file.
func (s *Set) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("task: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := s.Write(w); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("task: flush %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile reads a set from the named file.
func ReadFile(path string) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("task: %w", err)
	}
	defer f.Close()
	return Read(f)
}
