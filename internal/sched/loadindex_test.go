package sched

import (
	"fmt"
	"testing"

	"predrm/internal/rng"
)

func TestLoadIndexUpdateKeepsOrder(t *testing.T) {
	const n = 13
	x := NewLoadIndex(n)
	if err := x.Invariant(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	for step := 0; step < 2000; step++ {
		id := r.Intn(n)
		load := float64(r.Intn(7)) // small range: plenty of ties
		x.Update(id, load)
		if err := x.Invariant(); err != nil {
			t.Fatalf("step %d (id %d load %.0f): %v", step, id, load, err)
		}
		if x.Load(id) != load {
			t.Fatalf("step %d: Load(%d) = %v, want %v", step, id, x.Load(id), load)
		}
	}
}

func TestLoadIndexLeastAndTies(t *testing.T) {
	x := NewLoadIndex(4)
	x.Update(0, 3)
	x.Update(1, 1)
	x.Update(2, 1)
	x.Update(3, 2)
	// Ties resolve to the lower id: expect 1, 2, 3, 0.
	want := []int{1, 2, 3, 0}
	for k, id := range want {
		if got := x.At(k); got != id {
			t.Fatalf("At(%d) = %d, want %d", k, got, id)
		}
	}
	// Moving the least-loaded to the top re-ranks the rest.
	x.Update(1, 9)
	if x.At(0) != 2 || x.At(3) != 1 {
		t.Fatalf("after update: order %v", []int{x.At(0), x.At(1), x.At(2), x.At(3)})
	}
	if err := x.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// Invariant verifies internal consistency (tests).
func (x *LoadIndex) Invariant() error {
	for k, id := range x.rank {
		if x.pos[id] != k {
			return fmt.Errorf("loadindex: pos[%d]=%d but rank[%d]=%d", id, x.pos[id], k, id)
		}
		if k > 0 {
			prev := x.rank[k-1]
			if !x.less(prev, x.load[id], id) {
				return fmt.Errorf("loadindex: order broken at %d: id %d (%.3f) !< id %d (%.3f)",
					k, prev, x.load[prev], id, x.load[id])
			}
		}
	}
	return nil
}
