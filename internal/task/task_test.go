package task

import (
	"math"
	"testing"
	"testing/quick"

	"predrm/internal/platform"
	"predrm/internal/rng"
)

func mustGenerate(t *testing.T, seed uint64) *Set {
	t.Helper()
	s, err := Generate(platform.Default(), DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return s
}

func TestGenerateBasics(t *testing.T) {
	s := mustGenerate(t, 1)
	if s.Len() != 100 {
		t.Fatalf("got %d types, want 100", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, 42)
	b := mustGenerate(t, 42)
	for i := range a.Types {
		for r := range a.Types[i].WCET {
			if a.Types[i].WCET[r] != b.Types[i].WCET[r] {
				t.Fatalf("type %d WCET[%d] differs across runs", i, r)
			}
			if a.Types[i].Energy[r] != b.Types[i].Energy[r] {
				t.Fatalf("type %d Energy[%d] differs across runs", i, r)
			}
		}
	}
}

func TestGenerateGPUFaster(t *testing.T) {
	// The GPU divisor is in [2,10], so GPU WCET/energy must be strictly
	// below the CPU average for every type.
	s := mustGenerate(t, 7)
	p := s.Platform
	gpu := -1
	for i := 0; i < p.Len(); i++ {
		if p.Resource(i).Kind == platform.GPU {
			gpu = i
		}
	}
	for _, ty := range s.Types {
		var avg float64
		n := 0
		for i := 0; i < p.Len(); i++ {
			if p.Resource(i).Kind == platform.CPU {
				avg += ty.WCET[i]
				n++
			}
		}
		avg /= float64(n)
		if ty.WCET[gpu] >= avg/2 || ty.WCET[gpu] <= avg/10-1e-12 {
			t.Fatalf("type %d: GPU WCET %.3f not in (avg/10, avg/2] for avg %.3f",
				ty.ID, ty.WCET[gpu], avg)
		}
	}
}

func TestGenerateWCETDistribution(t *testing.T) {
	// Across many types x 5 CPUs the sample mean/std should approach the
	// configured Gaussian(40, 9^2).
	cfg := DefaultGenConfig()
	cfg.NumTypes = 2000
	s, err := Generate(platform.Default(), cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	n := 0
	for _, ty := range s.Types {
		for i := 0; i < 5; i++ { // CPUs are resources 0..4
			sum += ty.WCET[i]
			sumSq += ty.WCET[i] * ty.WCET[i]
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-40) > 0.5 {
		t.Errorf("WCET mean %.3f, want ~40", mean)
	}
	if math.Abs(std-9) > 0.5 {
		t.Errorf("WCET std %.3f, want ~9", std)
	}
}

func TestMigrationOverheadRange(t *testing.T) {
	s := mustGenerate(t, 9)
	for _, ty := range s.Types {
		var avgW, avgE float64
		for i := range ty.WCET {
			avgW += ty.WCET[i]
			avgE += ty.Energy[i]
		}
		avgW /= float64(len(ty.WCET))
		avgE /= float64(len(ty.Energy))
		if ty.MigTime < 0.1*avgW-1e-9 || ty.MigTime > 0.2*avgW+1e-9 {
			t.Fatalf("type %d MigTime %.3f outside [0.1,0.2]x%.3f", ty.ID, ty.MigTime, avgW)
		}
		if ty.MigEnergy < 0.1*avgE-1e-9 || ty.MigEnergy > 0.2*avgE+1e-9 {
			t.Fatalf("type %d MigEnergy %.3f outside [0.1,0.2]x%.3f", ty.ID, ty.MigEnergy, avgE)
		}
	}
}

func TestExecutability(t *testing.T) {
	ty := &Type{
		ID:     0,
		WCET:   []float64{10, NotExecutable, 5},
		Energy: []float64{3, NotExecutable, 1},
	}
	if !ty.ExecutableOn(0) || ty.ExecutableOn(1) || !ty.ExecutableOn(2) {
		t.Fatal("ExecutableOn wrong")
	}
	if ty.ExecutableOn(-1) || ty.ExecutableOn(3) {
		t.Fatal("ExecutableOn out-of-range should be false")
	}
	if ty.NumExecutable() != 2 {
		t.Fatalf("NumExecutable = %d, want 2", ty.NumExecutable())
	}
	w, r := ty.MinWCET()
	if w != 5 || r != 2 {
		t.Fatalf("MinWCET = %v on %d", w, r)
	}
	e, r := ty.MinEnergy()
	if e != 1 || r != 2 {
		t.Fatalf("MinEnergy = %v on %d", e, r)
	}
}

func TestValidateRejectsBadTypes(t *testing.T) {
	cases := []struct {
		name string
		ty   Type
	}{
		{"wrong-len", Type{WCET: []float64{1}, Energy: []float64{1}}},
		{"inconsistent", Type{WCET: []float64{1, NotExecutable}, Energy: []float64{1, 2}}},
		{"nowhere", Type{WCET: []float64{NotExecutable, NotExecutable}, Energy: []float64{NotExecutable, NotExecutable}}},
		{"zero-wcet", Type{WCET: []float64{0, 1}, Energy: []float64{1, 1}}},
		{"neg-energy", Type{WCET: []float64{1, 1}, Energy: []float64{-1, 1}}},
		{"neg-mig", Type{WCET: []float64{1, 1}, Energy: []float64{1, 1}, MigTime: -1}},
		{"nan", Type{WCET: []float64{math.NaN(), 1}, Energy: []float64{1, 1}}},
	}
	for _, c := range cases {
		if err := c.ty.Validate(2); err == nil {
			t.Errorf("%s: Validate accepted invalid type", c.name)
		}
	}
}

func TestSetValidate(t *testing.T) {
	s := mustGenerate(t, 11)
	s.Types[3].ID = 7
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-order ID")
	}
	if err := (&Set{}).Validate(); err == nil {
		t.Fatal("Validate accepted missing platform")
	}
	if err := (&Set{Platform: platform.Default()}).Validate(); err == nil {
		t.Fatal("Validate accepted empty set")
	}
}

func TestGenConfigValidate(t *testing.T) {
	bad := []GenConfig{
		{},
		{NumTypes: 10, WCETMean: -1, EnergyMean: 1, GPUDivMin: 2, GPUDivMax: 3},
		{NumTypes: 10, WCETMean: 1, EnergyMean: 1, GPUDivMin: 0.5, GPUDivMax: 3},
		{NumTypes: 10, WCETMean: 1, EnergyMean: 1, GPUDivMin: 2, GPUDivMax: 1},
		{NumTypes: 10, WCETMean: 1, EnergyMean: 1, GPUDivMin: 2, GPUDivMax: 3, MigMin: 0.3, MigMax: 0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad config", i)
		}
	}
	if err := DefaultGenConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestMotivationalMatchesTable1(t *testing.T) {
	s := Motivational()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	t1, t2 := s.Type(0), s.Type(1)
	// Table 1 values, resources ordered CPU1, CPU2, GPU.
	wantW1 := []float64{8, 12, 5}
	wantE1 := []float64{7.3, 8.4, 2}
	wantW2 := []float64{7, 8.5, 3}
	wantE2 := []float64{6.2, 7.5, 1.5}
	for i := range wantW1 {
		if t1.WCET[i] != wantW1[i] || t1.Energy[i] != wantE1[i] {
			t.Errorf("tau1 resource %d: got (%v,%v), want (%v,%v)",
				i, t1.WCET[i], t1.Energy[i], wantW1[i], wantE1[i])
		}
		if t2.WCET[i] != wantW2[i] || t2.Energy[i] != wantE2[i] {
			t.Errorf("tau2 resource %d: got (%v,%v), want (%v,%v)",
				i, t2.WCET[i], t2.Energy[i], wantW2[i], wantE2[i])
		}
	}
}

func TestGeneratePropertyAllPositive(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := Generate(platform.Default(), DefaultGenConfig(), rng.New(seed))
		if err != nil {
			return false
		}
		for _, ty := range s.Types {
			for i := range ty.WCET {
				if ty.WCET[i] <= 0 || ty.Energy[i] <= 0 {
					return false
				}
			}
			if ty.MigTime <= 0 || ty.MigEnergy <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	_, err := Generate(platform.Default(), GenConfig{}, rng.New(1))
	if err == nil {
		t.Fatal("Generate accepted zero config")
	}
}

// MinWCET returns the smallest WCET over executable resources and the
// resource achieving it.
func (t *Type) MinWCET() (wcet float64, resource int) {
	wcet, resource = NotExecutable, -1
	for i, c := range t.WCET {
		if t.ExecutableOn(i) && c < wcet {
			wcet, resource = c, i
		}
	}
	return wcet, resource
}

// MinEnergy returns the smallest energy over executable resources and the
// resource achieving it.
func (t *Type) MinEnergy() (energy float64, resource int) {
	energy, resource = NotExecutable, -1
	for i, e := range t.Energy {
		if t.ExecutableOn(i) && e < energy {
			energy, resource = e, i
		}
	}
	return energy, resource
}
