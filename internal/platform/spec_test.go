package platform

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec       string
		cpus, gpus int
	}{
		{"5c1g", 5, 1},
		{"64c8g", 64, 8},
		{"2c", 2, 0},
		{"3g", 0, 3},
		{" 8C2G ", 8, 2},
		{"2c1g2c", 4, 1}, // repeated pools accumulate
	}
	for _, c := range cases {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if p.NumCPUs() != c.cpus || p.NumGPUs() != c.gpus {
			t.Fatalf("Parse(%q) = %d CPU + %d GPU, want %d + %d",
				c.spec, p.NumCPUs(), p.NumGPUs(), c.cpus, c.gpus)
		}
	}
}

func TestParseSpecErrorsNameBadToken(t *testing.T) {
	cases := []struct {
		spec, token string
	}{
		{"64c8q", "8q"},
		{"c1g", "c1g"},
		{"5c1", "1"},
		{"5x", "5x"},
		{"", "empty spec"},
		{"0c0g", "at least one resource"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec)
		if err == nil {
			t.Fatalf("Parse(%q): expected error", c.spec)
		}
		if !strings.Contains(err.Error(), c.token) {
			t.Fatalf("Parse(%q) error %q does not name %q", c.spec, err, c.token)
		}
	}
}

// TestParseBoundsTotal: a spec of more than 1<<20 resources, in one
// token or in several that each fit, is refused with ErrSpecTooLarge
// naming the token that crossed the bound, before any platform is built.
func TestParseBoundsTotal(t *testing.T) {
	for _, c := range []struct{ spec, token string }{
		{"1048576c1048576c1048576c1048576c", "1048576c"},
		{"4c1048573g", "1048573g"},
		{"99999999999999999999999c", "99999999999999999999999c"},
	} {
		_, err := Parse(c.spec)
		if !errors.Is(err, ErrSpecTooLarge) {
			t.Fatalf("Parse(%q): error %v, want ErrSpecTooLarge", c.spec, err)
		}
		if !strings.Contains(err.Error(), c.token) {
			t.Fatalf("Parse(%q) error %q does not name %q", c.spec, err, c.token)
		}
	}
}

func TestParseMatchesNew(t *testing.T) {
	p, err := Parse("5c1g")
	if err != nil {
		t.Fatal(err)
	}
	want := New(5, 1)
	if p.Len() != want.Len() {
		t.Fatalf("lengths differ: %d vs %d", p.Len(), want.Len())
	}
	for i := 0; i < p.Len(); i++ {
		if p.Resource(i) != want.Resource(i) {
			t.Fatalf("resource %d: %+v vs %+v", i, p.Resource(i), want.Resource(i))
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"5c1g", "64c8g", "2c", "1g", "1g2c", "2c1g2c"} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Spec(); got != spec {
			t.Fatalf("Parse(%q).Spec() = %q", spec, got)
		}
	}
}

func TestPartitionBalanced(t *testing.T) {
	p, err := Parse("64c8g")
	if err != nil {
		t.Fatal(err)
	}
	shards, err := p.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 8 {
		t.Fatalf("got %d shards", len(shards))
	}
	seen := make([]bool, p.Len())
	for s, sh := range shards {
		if got := sh.Platform.Spec(); got != "8c1g" {
			t.Fatalf("shard %d is %q, want 8c1g", s, got)
		}
		if len(sh.GlobalIDs) != sh.Platform.Len() {
			t.Fatalf("shard %d: %d global ids for %d resources", s, len(sh.GlobalIDs), sh.Platform.Len())
		}
		for local, global := range sh.GlobalIDs {
			if seen[global] {
				t.Fatalf("resource %d assigned twice", global)
			}
			seen[global] = true
			if p.Resource(global).Kind != sh.Platform.Resource(local).Kind {
				t.Fatalf("shard %d local %d: kind mismatch with global %d", s, local, global)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("resource %d unassigned", id)
		}
	}
}

func TestPartitionUneven(t *testing.T) {
	p := New(5, 1)
	shards, err := p.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	// CPUs deal 3/2, the lone GPU lands on shard 0.
	if shards[0].Platform.Spec() != "3c1g" || shards[1].Platform.Spec() != "2c" {
		t.Fatalf("uneven deal: %q / %q", shards[0].Platform.Spec(), shards[1].Platform.Spec())
	}
}

func TestPartitionSingleShardIsIdentity(t *testing.T) {
	p := New(5, 1)
	shards, err := p.Partition(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Platform.Len() != p.Len() {
		t.Fatalf("bad identity partition: %+v", shards)
	}
	for local, global := range shards[0].GlobalIDs {
		if local != global {
			t.Fatalf("identity partition remaps %d -> %d", local, global)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	p := New(2, 1)
	if _, err := p.Partition(0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := p.Partition(4); err == nil {
		t.Fatal("expected error for more shards than resources")
	}
}

// FuzzParse: Parse never panics on any string; a platform it accepts
// holds between 1 and MaxResources resources, and its canonical Spec
// parses back to the same Spec.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"5c1g", "64c8g", " 8C2G ", "2c1g2c", "0c0g", "4c1048573g", "c1g", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if n := p.Len(); n < 1 || n > MaxResources {
			t.Fatalf("Parse(%q) built %d resources", spec, n)
		}
		q, err := Parse(p.Spec())
		if err != nil {
			t.Fatalf("Parse(%q).Spec() = %q does not parse: %v", spec, p.Spec(), err)
		}
		if q.Spec() != p.Spec() {
			t.Fatalf("Parse(%q): Spec %q re-parses to %q", spec, p.Spec(), q.Spec())
		}
	})
}
