package exact

import (
	"math"
	"slices"

	"predrm/internal/sched"
)

// Capacity pricing: a Lagrangian lower bound that charges each free job
// for the deadline-bounded capacity it uses (DESIGN.md §7.3).
//
// The plain bound, sufMinE, charges every free job its cheapest resource.
// Under the paper's generator that is almost always the one GPU, so on a
// loaded activation the bound sits far below the optimum and the search
// expands hundreds of thousands of nodes to close the gap. Every feasible
// mapping, however, obeys the demand bound: on each resource r, the work
// whose deadline is at most D fits into [t, D] (plus the schedule's Eps
// tolerance). Relaxing those constraints with multipliers lambda >= 0 and
// minimising the rest job by job gives a bound that is still separable
// over the branching order, so the per-node cost stays O(1).
//
// The constants come from a sweep over every solve of the seed-1 runs of
// rmsim -engine milp -predict -len 1000 at interarrival 2.2 (1,462
// solves, 2.58M nodes with the plain bound) and 4.0 (1,202, the
// paper-vt-exact rate) on a 2-vCPU Xeon. Pricing after
// 64/128/256/512/1024 nodes left 0.74/0.75/0.77/0.80/0.85M nodes at 2.2,
// and at 4.0 cut the p99 solve time by 54/63/50/39% for 64-512; 256
// keeps the pricing off the many solves that end soon after.
// 10/20/30/50/80 steps left a largest solve of 137k/47k/47k/46k/46k
// nodes (plain: 260k). A first Polyak step factor of 1 or 0.25 instead
// of 0.5 left 0.81M and 0.78M nodes; halving it after 2 or 5 stalled
// steps instead of 3 left 0.92M and 0.78M.
const (
	// priceAfter is the node count at which a solve prices capacity.
	// Solves that end earlier — most of them — pay nothing.
	priceAfter = 256
	// priceSteps is the number of projected-subgradient steps per solve.
	priceSteps = 30
	// priceStep0 is the initial Polyak step factor; it halves after
	// priceStall consecutive steps without a better bound.
	priceStep0 = 0.5
	priceStall = 3
	// priceMarginRel scales the bound's safety margin with the magnitude
	// of its terms, so that float rounding in their sums never lets the
	// bound exceed a leaf energy the search would accept.
	priceMarginRel = 1e-12
)

// lagScratch is the multiplier state of one pricing, reused across
// solves. Constraints are indexed r*len(levels)+l for resource r and
// deadline level l.
type lagScratch struct {
	levels  []float64 // distinct free-job deadlines, ascending
	lvl     []int     // per branching depth, the level of the job's deadline
	room    []float64 // per constraint: capacity left after pinned work
	lam     []float64 // current multipliers
	bestLam []float64 // multipliers of the best bound seen
	mu      []float64 // per (r, l): sum of lam over levels >= l
	g       []float64 // subgradient at lam
}

// price computes capacity multipliers for the current problem and
// switches the priced bound on, at the search node at depth: the priced
// energy of the path above it is recomputed from the recorded mapping.
func (o *Optimal) price(depth int) {
	if math.IsInf(o.sufMinE[0], 1) {
		return // a job has no candidate: the plain bound cut the root
	}
	o.prepareLag()
	s := &o.lag
	clear(s.lam)
	best := o.lagrangian(s.lam)
	copy(s.bestLam, s.lam)
	ub := o.bestE
	if !o.found {
		// No incumbent yet: every leaf is at most each job's dearest
		// candidate, which sizes the first step instead.
		ub = o.pinnedE
		for d := range o.order {
			ub += slices.Max(o.candE[d])
		}
	}
	val := best
	theta, stall := priceStep0, 0
	for step := 0; step < priceSteps; step++ {
		gap := ub - val
		norm := 0.0
		for i, gi := range s.g {
			if s.lam[i] > 0 || gi > 0 {
				norm += gi * gi
			}
		}
		if gap <= 0 || norm == 0 {
			break // the bound meets the incumbent, or no constraint binds
		}
		t := theta * gap / norm
		for i, gi := range s.g {
			s.lam[i] = max(0, s.lam[i]+t*gi)
		}
		if val = o.lagrangian(s.lam); val > best {
			best, stall = val, 0
			copy(s.bestLam, s.lam)
		} else if stall++; stall == priceStall {
			theta, stall = theta/2, 0
		}
	}
	o.installLag(depth)
}

// prepareLag sizes the pricing scratch for the current problem and fills
// the deadline levels and each constraint's room: D - t plus the
// tolerance, less the pinned and fixed work due by D. Only immovable work
// enters the room; the path's assignments are priced through candL.
func (o *Optimal) prepareLag() {
	p := o.p
	s := &o.lag
	s.levels = s.levels[:0]
	for _, jobIdx := range o.order {
		s.levels = append(s.levels, p.Jobs[jobIdx].AbsDeadline)
	}
	slices.Sort(s.levels)
	s.levels = slices.Compact(s.levels)
	nl := len(s.levels)
	s.lvl = s.lvl[:0]
	for _, jobIdx := range o.order {
		l, _ := slices.BinarySearch(s.levels, p.Jobs[jobIdx].AbsDeadline)
		s.lvl = append(s.lvl, l)
	}
	nc := p.Platform.Len() * nl
	s.room = slices.Grow(s.room[:0], nc)[:nc]
	s.lam = slices.Grow(s.lam[:0], nc)[:nc]
	s.bestLam = slices.Grow(s.bestLam[:0], nc)[:nc]
	s.mu = slices.Grow(s.mu[:0], nc)[:nc]
	s.g = slices.Grow(s.g[:0], nc)[:nc]
	// A resource serves at rate one from t, and the EDF check lets each
	// entry finish Eps late and counts one with at most Eps left as done,
	// so the slack is Eps per job plus one.
	slack := sched.Eps * float64(len(p.Jobs)+1)
	for r := 0; r < p.Platform.Len(); r++ {
		for l, d := range s.levels {
			s.room[r*nl+l] = d - p.Time + slack
		}
	}
	for _, j := range p.Jobs {
		if !j.Fixed && !j.Pinned(p.Platform) {
			continue
		}
		rem := j.CPM(j.Resource, p.Policy)
		l0, _ := slices.BinarySearch(s.levels, j.AbsDeadline)
		for l := l0; l < nl; l++ {
			s.room[j.Resource*nl+l] -= rem
		}
	}
}

// lagrangian returns the priced bound at multipliers lam, for the root of
// the search: pinned energy plus each free job's cheapest priced
// candidate, less the priced room. It leaves the per-constraint prices
// in mu and the subgradient (priced load minus room) in g.
func (o *Optimal) lagrangian(lam []float64) float64 {
	s := &o.lag
	nl := len(s.levels)
	for r := 0; r < o.p.Platform.Len(); r++ {
		acc := 0.0
		for l := nl - 1; l >= 0; l-- {
			acc += lam[r*nl+l]
			s.mu[r*nl+l] = acc
		}
	}
	clear(s.g)
	val := o.pinnedE
	for d, rs := range o.resOrder[:len(o.order)] {
		l := s.lvl[d]
		bk, bv := 0, math.Inf(1)
		for k, r := range rs {
			if v := o.candE[d][k] + o.cand[d][k].Rem*s.mu[r*nl+l]; v < bv {
				bk, bv = k, v
			}
		}
		val += bv
		s.g[rs[bk]*nl+l] += o.cand[d][bk].Rem
	}
	for r := 0; r < o.p.Platform.Len(); r++ {
		acc := 0.0
		for l := 0; l < nl; l++ {
			i := r*nl + l
			acc += s.g[i]
			s.g[i] = acc - s.room[i]
			val -= lam[i] * s.room[i]
		}
	}
	return val
}

// installLag installs the best multipliers as the priced bound: reweighted
// candidate costs, suffix sums of their per-depth minima, the constant
// term with its safety margin, and the priced energy of the current path
// down to depth.
func (o *Optimal) installLag(depth int) {
	s := &o.lag
	nl := len(s.levels)
	o.lagrangian(s.bestLam) // fills mu for bestLam
	k := len(o.order)
	if len(o.candL) < k {
		o.candL = append(o.candL, make([][]float64, k-len(o.candL))...)
	}
	o.sufLag = slices.Grow(o.sufLag[:0], k+1)[:k+1]
	o.pathLag = slices.Grow(o.pathLag[:0], k+1)[:k+1]
	mag := o.pinnedE
	o.sufLag[k] = 0
	for d := k - 1; d >= 0; d-- {
		l := s.lvl[d]
		cl := o.candL[d][:0]
		for kk, r := range o.resOrder[d] {
			cl = append(cl, o.candE[d][kk]+o.cand[d][kk].Rem*s.mu[r*nl+l])
		}
		o.candL[d] = cl
		o.sufLag[d] = o.sufLag[d+1] + slices.Min(cl)
		mag += slices.Max(cl)
	}
	o.lagK = 0
	for i, lam := range s.bestLam {
		o.lagK += lam * s.room[i]
		mag += math.Abs(lam * s.room[i])
	}
	o.lagK += sched.Eps + priceMarginRel*mag
	o.pathLag[0] = o.pinnedE
	for d := 0; d < depth; d++ {
		r := o.mapping[o.order[d]]
		ri := slices.Index(o.resOrder[d], r)
		o.pathLag[d+1] = o.pathLag[d] + o.candL[d][ri]
	}
	o.priced = true
}
