package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// 0: a root of 100 with two nested children and one grandchild.
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 70, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		// 4: a root whose children overlap each other, as concurrent
		// shard solves do: [10,50) ∪ [30,60) ∪ [55,58) covers 50.
		{Name: "epoch", Start: 0, End: 80, Parent: -1},
		{Name: "s0", Start: 10, End: 50, Parent: 4},
		{Name: "s1", Start: 30, End: 60, Parent: 4},
		{Name: "s2", Start: 55, End: 58, Parent: 4},
		// 8: a child reaching past its parent's end counts only inside it.
		{Name: "p", Start: 100, End: 110, Parent: -1},
		{Name: "late", Start: 105, End: 120, Parent: 8},
	}
	want := []int64{
		100 - 30 - 20, // root
		30 - 10,       // a
		20,            // b
		10,            // a1
		80 - 50,       // epoch
		40, 30, 3,     // the shard solves have no children
		10 - 5, // p
		15,     // late
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	outer := r.begin("engine.activate", 7)
	r.leaf(span{Name: "core.solve", Start: r.now(), End: r.now()})
	inner := r.begin("engine.advance", -1)
	r.end(inner)
	r.end(outer)
	drain := r.begin("engine.drain", -1)
	r.end(drain)

	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(got))
	}
	for i, w := range []struct {
		name        string
		parent, req int
	}{
		{"engine.activate", -1, 7},
		{"core.solve", 0, 7},
		{"engine.advance", 0, 7},
		{"engine.drain", -1, -1},
	} {
		if s := got[i]; s.Name != w.name || s.Parent != w.parent || s.Req != w.req {
			t.Errorf("span %d = %s parent %d req %d, want %s parent %d req %d", i, s.Name, s.Parent, s.Req, w.name, w.parent, w.req)
		}
		if got[i].End < got[i].Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}

	var nilRec *recorder
	nilRec.end(nilRec.begin("untraced", 0)) // a nil recorder records nothing
}
