package platform

import (
	"errors"
	"fmt"
	"strings"
)

// MaxResources bounds a spec's total resource count, so a short spec
// string cannot ask the task generator for per-resource tables of
// millions of columns. Checking it digit by digit also keeps a long count
// from overflowing. Trace readers apply the same bound to resource ids.
const MaxResources = 1 << 20

// ErrSpecTooLarge reports a spec whose tokens add up to more than 1<<20
// resources.
var ErrSpecTooLarge = errors.New("platform: spec exceeds 1048576 resources in total")

// Pool is one homogeneous group of resources: Count resources of one
// Kind. Pools generalise the historical New(cpus, gpus) shape — a
// platform is an ordered list of pools, and NewPools lays the resources
// out pool by pool with per-kind numbering (CPU1.., GPU1..).
type Pool struct {
	// Kind of every resource in the pool.
	Kind Kind
	// Count is the number of resources; must be non-negative.
	Count int
}

// NewPools builds a platform from resource pools. At least one resource
// is required overall; pools with Count 0 are permitted and contribute
// nothing. Resources are numbered per kind across pools, so
// NewPools({CPU,5}, {GPU,1}) is identical to New(5, 1).
func NewPools(pools ...Pool) (*Platform, error) {
	total := 0
	for _, pl := range pools {
		if pl.Count < 0 {
			return nil, fmt.Errorf("platform: pool of kind %s has negative count %d", pl.Kind, pl.Count)
		}
		if pl.Kind != CPU && pl.Kind != GPU {
			return nil, fmt.Errorf("platform: unknown resource kind %d", int(pl.Kind))
		}
		total += pl.Count
	}
	if total == 0 {
		return nil, fmt.Errorf("platform: need at least one resource")
	}
	p := &Platform{resources: make([]Resource, 0, total)}
	seq := map[Kind]int{}
	for _, pl := range pools {
		for i := 0; i < pl.Count; i++ {
			seq[pl.Kind]++
			p.resources = append(p.resources, Resource{
				ID:   len(p.resources),
				Name: fmt.Sprintf("%s%d", pl.Kind, seq[pl.Kind]),
				Kind: pl.Kind,
			})
		}
	}
	return p, nil
}

// kindForToken maps a spec token suffix to a resource kind.
func kindForToken(s byte) (Kind, bool) {
	switch s {
	case 'c', 'C':
		return CPU, true
	case 'g', 'G':
		return GPU, true
	}
	return 0, false
}

// Parse builds a platform from a compact spec string such as "64c8g":
// a sequence of <count><kind> tokens where the kind is c (preemptable,
// CPU-like) or g (non-preemptable, GPU-like). "5c1g" is the paper's
// evaluation platform. Errors name the offending token, so a mistyped
// flag value points at exactly the piece that is wrong.
func Parse(spec string) (*Platform, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return nil, fmt.Errorf("platform: empty spec (want e.g. %q)", "5c1g")
	}
	var pools []Pool
	total := 0
	for i := 0; i < len(s); {
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		if i == start || i == len(s) {
			return nil, fmt.Errorf("platform: spec %q: bad token %q (want <count>c or <count>g)", spec, s[start:])
		}
		kind, ok := kindForToken(s[i])
		if !ok {
			return nil, fmt.Errorf("platform: spec %q: bad token %q (want <count>c or <count>g)", spec, s[start:i+1])
		}
		count := 0
		for _, d := range s[start:i] {
			count = count*10 + int(d-'0')
			if total+count > MaxResources {
				return nil, fmt.Errorf("%w (spec %q, at token %q)", ErrSpecTooLarge, spec, s[start:i+1])
			}
		}
		total += count
		pools = append(pools, Pool{Kind: kind, Count: count})
		i++
	}
	p, err := NewPools(pools...)
	if err != nil {
		return nil, fmt.Errorf("%w (spec %q)", err, spec)
	}
	return p, nil
}

// Spec renders the platform as a canonical Parse-able spec: one
// <count><kind> token per run of same-kind resources, in resource order,
// so Parse(p.Spec()) rebuilds p ("5c1g", "1g2c", "2c1g2c").
func (p *Platform) Spec() string {
	var b strings.Builder
	for i := 0; i < len(p.resources); {
		kind, n := p.resources[i].Kind, 0
		for ; i < len(p.resources) && p.resources[i].Kind == kind; i++ {
			n++
		}
		tok := 'c'
		if kind == GPU {
			tok = 'g'
		}
		fmt.Fprintf(&b, "%d%c", n, tok)
	}
	return b.String()
}
