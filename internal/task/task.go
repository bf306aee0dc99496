// Package task models the workload's task types and implements the paper's
// synthetic task-set generator (Sec 5.1).
//
// A task type τ_j carries, for every platform resource r_i, a worst-case
// execution time c_{j,i} and an average energy consumption e_{j,i}, plus
// migration overheads cm_j (time) and em_j (energy) charged when an already
// started instance is relocated between resources.
package task

import (
	"errors"
	"fmt"
	"math"

	"predrm/internal/platform"
	"predrm/internal/rng"
)

// NotExecutable marks a (task, resource) pair on which the task cannot run.
// WCET and Energy hold this sentinel for such pairs (the paper's "specific
// dummy values", Sec 2 footnote 1).
const NotExecutable = math.MaxFloat64

// Type describes one task type τ_j.
type Type struct {
	// ID identifies the type within its Set (0-based).
	ID int
	// WCET[i] is the worst-case execution time c_{j,i} on resource i, or
	// NotExecutable.
	WCET []float64
	// Energy[i] is the average energy e_{j,i} on resource i, or
	// NotExecutable.
	Energy []float64
	// MigTime is cm_j: the extra execution time charged when a started
	// instance migrates between two distinct resources.
	MigTime float64
	// MigEnergy is em_j: the energy charged for such a migration.
	MigEnergy float64
}

// ExecutableOn reports whether the type can run on resource i.
func (t *Type) ExecutableOn(i int) bool {
	return i >= 0 && i < len(t.WCET) && t.WCET[i] != NotExecutable
}

// NumExecutable returns on how many resources the type can run.
func (t *Type) NumExecutable() int {
	n := 0
	for i := range t.WCET {
		if t.ExecutableOn(i) {
			n++
		}
	}
	return n
}

// Validate checks internal consistency against a platform of n resources.
func (t *Type) Validate(n int) error {
	if len(t.WCET) != n || len(t.Energy) != n {
		return fmt.Errorf("task %d: got %d WCETs and %d energies, platform has %d resources",
			t.ID, len(t.WCET), len(t.Energy), n)
	}
	executable := false
	for i := 0; i < n; i++ {
		cw, ce := t.WCET[i], t.Energy[i]
		if (cw == NotExecutable) != (ce == NotExecutable) {
			return fmt.Errorf("task %d: resource %d has inconsistent executability", t.ID, i)
		}
		if cw == NotExecutable {
			continue
		}
		executable = true
		if cw <= 0 || math.IsNaN(cw) || math.IsInf(cw, 0) {
			return fmt.Errorf("task %d: invalid WCET %v on resource %d", t.ID, cw, i)
		}
		if ce <= 0 || math.IsNaN(ce) || math.IsInf(ce, 0) {
			return fmt.Errorf("task %d: invalid energy %v on resource %d", t.ID, ce, i)
		}
	}
	if !executable {
		return fmt.Errorf("task %d: not executable on any resource", t.ID)
	}
	if t.MigTime < 0 || t.MigEnergy < 0 {
		return fmt.Errorf("task %d: negative migration overhead", t.ID)
	}
	return nil
}

// Set is a collection of task types over a common platform.
type Set struct {
	// Platform the WCET/energy vectors are indexed against.
	Platform *platform.Platform
	// Types holds the task types; Types[k].ID == k.
	Types []*Type
}

// Len returns the number of task types.
func (s *Set) Len() int { return len(s.Types) }

// Type returns task type id. It panics if id is out of range.
func (s *Set) Type(id int) *Type { return s.Types[id] }

// Validate checks every type against the set's platform.
func (s *Set) Validate() error {
	if s.Platform == nil {
		return errors.New("task: set has no platform")
	}
	if len(s.Types) == 0 {
		return errors.New("task: empty set")
	}
	for k, t := range s.Types {
		if t.ID != k {
			return fmt.Errorf("task: type at index %d has ID %d", k, t.ID)
		}
		if err := t.Validate(s.Platform.Len()); err != nil {
			return err
		}
	}
	return nil
}

// GenConfig parameterises the synthetic task-set generator. The defaults
// (see DefaultGenConfig) are the paper's Sec 5.1 values.
type GenConfig struct {
	// NumTypes is the number of task types to create (paper: 100).
	NumTypes int
	// WCETMean/WCETStd parameterise the Gaussian CPU WCET (paper: 40, 9).
	WCETMean, WCETStd float64
	// EnergyMean/EnergyStd parameterise the Gaussian CPU energy
	// (paper: 15, 3).
	EnergyMean, EnergyStd float64
	// GPUDivMin/GPUDivMax bound the uniform divisor applied to the average
	// CPU WCET and energy to obtain the GPU values (paper: 2, 10).
	GPUDivMin, GPUDivMax float64
	// MigMin/MigMax bound the uniform migration-overhead fraction of the
	// average WCET and energy over all resources (paper: 0.1, 0.2).
	MigMin, MigMax float64
}

// DefaultGenConfig returns the paper's Sec 5.1 generator parameters.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		NumTypes: 100,
		WCETMean: 40, WCETStd: 9,
		EnergyMean: 15, EnergyStd: 3,
		GPUDivMin: 2, GPUDivMax: 10,
		MigMin: 0.1, MigMax: 0.2,
	}
}

// Validate checks the configuration for obviously broken parameters.
func (c GenConfig) Validate() error {
	switch {
	case c.NumTypes <= 0:
		return errors.New("task: NumTypes must be positive")
	case c.WCETMean <= 0 || c.WCETStd < 0:
		return errors.New("task: invalid WCET distribution")
	case c.EnergyMean <= 0 || c.EnergyStd < 0:
		return errors.New("task: invalid energy distribution")
	case c.GPUDivMin < 1 || c.GPUDivMax < c.GPUDivMin:
		return errors.New("task: invalid GPU divisor range")
	case c.MigMin < 0 || c.MigMax < c.MigMin:
		return errors.New("task: invalid migration fraction range")
	}
	return nil
}

// Generate creates a synthetic task set for p following Sec 5.1: per-CPU
// Gaussian WCET and energy draws, GPU values derived by dividing the CPU
// averages by a uniform factor, and migration overheads as a uniform
// fraction of the per-task averages. Generation is deterministic in r.
func Generate(p *platform.Platform, cfg GenConfig, r *rng.Rand) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Set{Platform: p, Types: make([]*Type, 0, cfg.NumTypes)}
	for id := 0; id < cfg.NumTypes; id++ {
		t := &Type{
			ID:     id,
			WCET:   make([]float64, p.Len()),
			Energy: make([]float64, p.Len()),
		}
		var cpuWCETSum, cpuEnergySum float64
		cpus := 0
		for i := 0; i < p.Len(); i++ {
			if p.Resource(i).Kind != platform.CPU {
				continue
			}
			// Truncate at a small positive floor so degenerate draws can
			// never produce non-positive work.
			w := r.TruncGaussian(cfg.WCETMean, cfg.WCETStd, cfg.WCETMean/100, cfg.WCETMean*4)
			e := r.TruncGaussian(cfg.EnergyMean, cfg.EnergyStd, cfg.EnergyMean/100, cfg.EnergyMean*4)
			t.WCET[i], t.Energy[i] = w, e
			cpuWCETSum += w
			cpuEnergySum += e
			cpus++
		}
		avgWCET := cpuWCETSum / float64(cpus)
		avgEnergy := cpuEnergySum / float64(cpus)
		div := r.Uniform(cfg.GPUDivMin, cfg.GPUDivMax)
		for i := 0; i < p.Len(); i++ {
			if p.Resource(i).Kind != platform.GPU {
				continue
			}
			t.WCET[i] = avgWCET / div
			t.Energy[i] = avgEnergy / div
		}
		// Migration overhead: a fraction of the average WCET/energy over
		// all resources (Sec 5.1, last paragraph).
		var allWCET, allEnergy float64
		for i := 0; i < p.Len(); i++ {
			allWCET += t.WCET[i]
			allEnergy += t.Energy[i]
		}
		allWCET /= float64(p.Len())
		allEnergy /= float64(p.Len())
		t.MigTime = r.Uniform(cfg.MigMin, cfg.MigMax) * allWCET
		t.MigEnergy = r.Uniform(cfg.MigMin, cfg.MigMax) * allEnergy
		s.Types = append(s.Types, t)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Motivational returns the exact task set of the paper's motivational
// example (Table 1): two tasks on a 2-CPU + 1-GPU platform, with zero
// migration overhead (the example does not model migration cost).
func Motivational() *Set {
	p := platform.Motivational()
	return &Set{
		Platform: p,
		Types: []*Type{
			{
				ID:     0, // τ1
				WCET:   []float64{8, 12, 5},
				Energy: []float64{7.3, 8.4, 2},
			},
			{
				ID:     1, // τ2
				WCET:   []float64{7, 8.5, 3},
				Energy: []float64{6.2, 7.5, 1.5},
			},
		},
	}
}
