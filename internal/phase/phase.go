// Package phase turns a run's telemetry interval series into an
// execution-phase model and a representative sampling plan.
//
// The approach is SimPoint-style interval clustering, but — following
// Bueno et al. (Improving the Representativeness of Simulation
// Intervals for the Cache Memory System) — the feature vector is built
// from cache-behaviour signals the telemetry collector already gathers
// (IPC, per-level MPKI, LLC occupancy share, engine trigger rate)
// instead of basic-block vectors. Intervals are z-normalized, reduced
// with a small power-iteration PCA, clustered with seeded k-means
// (k-means++ init, elbow selection), and each cluster elects the member
// interval closest to its centroid as the phase's representative
// simulation window. Full-ROI metrics are then extrapolated as the
// cluster-weighted sum over representatives, and the plan carries
// per-metric self-consistency error bounds computed from within-cluster
// dispersion.
//
// Everything is deterministic: the same series and seed produce the
// same plan, byte for byte, like every other seeded component in this
// repository.
package phase

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// ErrTooShort reports a series with too few intervals to cluster;
// callers fall back to full-ROI simulation.
var ErrTooShort = errors.New("phase: too few telemetry intervals to cluster")

// featureDim is the per-interval feature vector width: IPC, L1D MPKI,
// L2 MPKI, LLC MPKI, LLC occupancy fraction, engine trigger rate.
const featureDim = 6

// The clusterer's settings.
const (
	// maxPhases caps the number of clusters.
	maxPhases = 6
	// components is the PCA dimensionality the intervals are reduced to
	// before clustering (at most featureDim).
	components = 3
	// minIntervals is the shortest series worth clustering; anything
	// shorter returns ErrTooShort.
	minIntervals = 8
	// elbowGain is the k-selection threshold: growing k by one must
	// reduce within-cluster variance by at least this fraction of the
	// total variance, or the smaller k wins.
	elbowGain = 0.12
)

// Window is one representative simulation window, in ROI-relative
// instruction offsets ([Start, End) with Start counted from the first
// profiled instruction).
type Window struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Phase is the cluster this window represents.
	Phase int `json:"phase"`
	// CoverInstrs is the total instruction mass of the phase; the
	// window's measured deltas are scaled by CoverInstrs/(End-Start)
	// during extrapolation.
	CoverInstrs uint64 `json:"cover_instrs"`
}

// Bounds are per-metric self-consistency error bounds: the
// cluster-weighted worst within-cluster deviation from each
// representative, i.e. the largest error the extrapolation could make
// if every member behaved like its phase's worst outlier. IPC and
// LLC MPKI bounds are relative to the series mean; the trigger-rate
// bound is absolute (the audited quantity is itself a probability).
type Bounds struct {
	IPCRel         float64 `json:"ipc_rel"`
	LLCMPKIRel     float64 `json:"llc_mpki_rel"`
	TriggerRateAbs float64 `json:"trigger_rate_abs"`
}

// Plan is a phase model plus the sampling schedule derived from it.
type Plan struct {
	// Every is the profiled series' nominal interval width.
	Every uint64 `json:"every"`
	// Phases is the selected cluster count; Intervals the series length.
	Phases    int `json:"phases"`
	Intervals int `json:"intervals"`
	// WarmupInstrs is the per-window detailed warmup.
	WarmupInstrs uint64 `json:"warmup_instrs"`
	// Windows holds one representative window per phase, sorted by
	// Start so a sampled run visits them in a single forward pass.
	Windows []Window `json:"windows"`
	Bounds  Bounds   `json:"bounds"`
}

// TotalCover sums the instruction mass the plan's windows represent.
func (p *Plan) TotalCover() uint64 {
	var n uint64
	for _, w := range p.Windows {
		n += w.CoverInstrs
	}
	return n
}

// SimInstrs is the detailed-simulation budget a sampled run pays:
// per-window warmup plus the windows themselves.
func (p *Plan) SimInstrs() uint64 {
	var n uint64
	for _, w := range p.Windows {
		n += p.WarmupInstrs + (w.End - w.Start)
	}
	return n
}

func (p *Plan) String() string {
	return fmt.Sprintf("phase plan: %d phases over %d intervals, %d windows, %d/%d instrs detailed (bounds: IPC ±%.1f%%, LLC MPKI ±%.1f%%, trigger rate ±%.4f)",
		p.Phases, p.Intervals, len(p.Windows), p.SimInstrs(), p.TotalCover(),
		p.Bounds.IPCRel*100, p.Bounds.LLCMPKIRel*100, p.Bounds.TriggerRateAbs)
}

// interval is the clusterer's working view of one telemetry interval.
type interval struct {
	start, end uint64 // ROI-relative
	feat       [featureDim]float64
	proj       []float64 // PCA projection
	cluster    int
}

// Analyze clusters the series into phases and returns a sampling plan
// whose windows each get one interval width of detailed warmup. seed
// makes the (k-means++ and PCA initialisation) randomness
// deterministic; pass the run config's seed so plans are reproducible
// alongside everything else.
func Analyze(s *telemetry.Series, seed uint64) (*Plan, error) {
	return analyze(s, maxPhases, seed)
}

// analyze is Analyze with at most maxK phases.
func analyze(s *telemetry.Series, maxK int, seed uint64) (*Plan, error) {
	if s == nil || len(s.Intervals) < minIntervals {
		n := 0
		if s != nil {
			n = len(s.Intervals)
		}
		return nil, fmt.Errorf("%w: %d intervals, need %d", ErrTooShort, n, minIntervals)
	}

	// The series records absolute instruction counts; windows are
	// ROI-relative so the executor can reuse them from a different
	// stream position.
	roiBase := s.Intervals[0].EndInstrs - s.Intervals[0].Instrs
	ivs := make([]interval, 0, len(s.Intervals))
	for i := range s.Intervals {
		iv := &s.Intervals[i]
		if iv.Instrs == 0 {
			continue // degenerate double-boundary sample; nothing to represent
		}
		ivs = append(ivs, interval{
			start: iv.EndInstrs - iv.Instrs - roiBase,
			end:   iv.EndInstrs - roiBase,
			feat: [featureDim]float64{
				iv.IPC, iv.L1DMPKI, iv.L2MPKI, iv.LLCMPKI,
				iv.LLCOccupancyFrac, iv.TriggerRate(),
			},
		})
	}
	if len(ivs) < minIntervals {
		return nil, fmt.Errorf("%w: %d non-empty intervals, need %d", ErrTooShort, len(ivs), minIntervals)
	}

	normalize(ivs)
	pcg := rng.New(seed, 0x9e3779b97f4a7c15)
	project(ivs, components, pcg)
	k := selectK(ivs, maxK, pcg)
	assign := kmeans(ivs, k, pcg)

	plan := &Plan{
		Every:        s.Every,
		Phases:       k,
		Intervals:    len(ivs),
		WarmupInstrs: s.Every,
	}

	for c := 0; c < k; c++ {
		rep, cover := representative(ivs, assign, c)
		if rep < 0 {
			continue // empty cluster (k-means reseeding keeps these rare)
		}
		plan.Windows = append(plan.Windows, Window{
			Start:       ivs[rep].start,
			End:         ivs[rep].end,
			Phase:       c,
			CoverInstrs: cover,
		})
	}
	sort.Slice(plan.Windows, func(i, j int) bool { return plan.Windows[i].Start < plan.Windows[j].Start })
	plan.Bounds = bounds(s, ivs, assign, plan)
	return plan, nil
}

// normalize z-scores each feature dimension in place. A zero-variance
// dimension collapses to an all-zero column, dropping out of every
// distance computation.
func normalize(ivs []interval) {
	n := float64(len(ivs))
	for d := 0; d < featureDim; d++ {
		var mean float64
		for i := range ivs {
			mean += ivs[i].feat[d]
		}
		mean /= n
		var varsum float64
		for i := range ivs {
			dv := ivs[i].feat[d] - mean
			varsum += dv * dv
		}
		std := math.Sqrt(varsum / n)
		for i := range ivs {
			if std > 1e-12 {
				ivs[i].feat[d] = (ivs[i].feat[d] - mean) / std
			} else {
				ivs[i].feat[d] = 0
			}
		}
	}
}

// project reduces the normalized features to the top `comps` principal
// components via power iteration with deflation on the (at most 6×6)
// covariance matrix — exact eigensolvers are overkill at this size and
// the stdlib has none.
func project(ivs []interval, comps int, pcg *rng.PCG) {
	n := float64(len(ivs))
	var cov [featureDim][featureDim]float64
	for i := range ivs {
		for a := 0; a < featureDim; a++ {
			for b := a; b < featureDim; b++ {
				cov[a][b] += ivs[i].feat[a] * ivs[i].feat[b]
			}
		}
	}
	var trace float64
	for a := 0; a < featureDim; a++ {
		for b := a; b < featureDim; b++ {
			cov[a][b] /= n
			cov[b][a] = cov[a][b]
		}
		trace += cov[a][a]
	}

	var basis [][featureDim]float64
	for c := 0; c < comps; c++ {
		v, lam := powerIterate(&cov, pcg)
		// Stop early when the residual variance is numerically gone;
		// further components would be noise directions.
		if lam < 1e-9*trace || lam <= 0 {
			break
		}
		basis = append(basis, v)
		for a := 0; a < featureDim; a++ {
			for b := 0; b < featureDim; b++ {
				cov[a][b] -= lam * v[a] * v[b]
			}
		}
	}
	if len(basis) == 0 {
		// Constant features: every interval projects to the origin and
		// k-means will find a single phase, which is correct.
		basis = append(basis, [featureDim]float64{1})
	}
	for i := range ivs {
		p := make([]float64, len(basis))
		for c, v := range basis {
			var dot float64
			for d := 0; d < featureDim; d++ {
				dot += ivs[i].feat[d] * v[d]
			}
			p[c] = dot
		}
		ivs[i].proj = p
	}
}

// powerIterate returns the dominant eigenvector/value of cov.
func powerIterate(cov *[featureDim][featureDim]float64, pcg *rng.PCG) ([featureDim]float64, float64) {
	var v [featureDim]float64
	for d := range v {
		v[d] = pcg.Float64()*2 - 1
	}
	normVec(&v)
	var lam float64
	for it := 0; it < 200; it++ {
		var w [featureDim]float64
		for a := 0; a < featureDim; a++ {
			for b := 0; b < featureDim; b++ {
				w[a] += cov[a][b] * v[b]
			}
		}
		next := normVec(&w)
		var drift float64
		for d := range v {
			drift += (w[d] - v[d]) * (w[d] - v[d])
		}
		v = w
		lam = next
		if drift < 1e-18 {
			break
		}
	}
	return v, lam
}

func normVec(v *[featureDim]float64) float64 {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for d := range v {
			v[d] /= norm
		}
	}
	return norm
}

// selectK picks the cluster count by the elbow rule: the smallest k
// whose successor fails to cut within-cluster variance by
// elbowGain of the total, capped at maxK (and at the interval count).
func selectK(ivs []interval, maxK int, pcg *rng.PCG) int {
	if maxK > len(ivs) {
		maxK = len(ivs)
	}
	prev := wcss(ivs, kmeans(ivs, 1, pcg))
	total := prev
	if total <= 1e-12 {
		return 1 // all intervals identical in feature space
	}
	for k := 2; k <= maxK; k++ {
		cur := wcss(ivs, kmeans(ivs, k, pcg))
		if (prev-cur)/total < elbowGain {
			return k - 1
		}
		prev = cur
	}
	return maxK
}

// kmeans runs seeded k-means++ followed by Lloyd iterations and
// returns the per-interval cluster assignment.
func kmeans(ivs []interval, k int, pcg *rng.PCG) []int {
	dim := len(ivs[0].proj)
	cents := make([][]float64, k)

	// k-means++: first centroid uniform, the rest D²-weighted.
	first := int(pcg.Uint64N(uint64(len(ivs))))
	cents[0] = append([]float64(nil), ivs[first].proj...)
	d2 := make([]float64, len(ivs))
	for c := 1; c < k; c++ {
		var sum float64
		for i := range ivs {
			best := math.Inf(1)
			for _, ct := range cents[:c] {
				if d := dist2(ivs[i].proj, ct); d < best {
					best = d
				}
			}
			d2[i] = best
			sum += best
		}
		pick := first
		if sum > 0 {
			r := pcg.Float64() * sum
			for i := range d2 {
				r -= d2[i]
				if r <= 0 {
					pick = i
					break
				}
			}
		} else {
			pick = int(pcg.Uint64N(uint64(len(ivs))))
		}
		cents[c] = append([]float64(nil), ivs[pick].proj...)
	}

	assign := make([]int, len(ivs))
	counts := make([]int, k)
	for it := 0; it < 64; it++ {
		changed := false
		for i := range ivs {
			best, bestD := 0, math.Inf(1)
			for c := range cents {
				if d := dist2(ivs[i].proj, cents[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || it == 0 {
				changed = changed || assign[i] != best
				assign[i] = best
			}
		}
		if it > 0 && !changed {
			break
		}
		for c := range cents {
			for d := 0; d < dim; d++ {
				cents[c][d] = 0
			}
			counts[c] = 0
		}
		for i := range ivs {
			c := assign[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				cents[c][d] += ivs[i].proj[d]
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				// Empty cluster: reseed it on the point farthest from
				// its assigned centroid so k stays honest.
				far, farD := 0, -1.0
				for i := range ivs {
					if d := dist2(ivs[i].proj, cents[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(cents[c], ivs[far].proj)
				continue
			}
			for d := 0; d < dim; d++ {
				cents[c][d] /= float64(counts[c])
			}
		}
	}
	return assign
}

func dist2(a, b []float64) float64 {
	var s float64
	for d := range a {
		dv := a[d] - b[d]
		s += dv * dv
	}
	return s
}

// wcss is the within-cluster sum of squares for an assignment.
func wcss(ivs []interval, assign []int) float64 {
	k := 0
	for _, c := range assign {
		if c >= k {
			k = c + 1
		}
	}
	dim := len(ivs[0].proj)
	cents := make([][]float64, k)
	counts := make([]int, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	for i := range ivs {
		c := assign[i]
		counts[c]++
		for d := 0; d < dim; d++ {
			cents[c][d] += ivs[i].proj[d]
		}
	}
	for c := range cents {
		if counts[c] == 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			cents[c][d] /= float64(counts[c])
		}
	}
	var s float64
	for i := range ivs {
		s += dist2(ivs[i].proj, cents[assign[i]])
	}
	return s
}

// representative elects cluster c's member closest to its centroid and
// returns it with the cluster's total instruction mass.
func representative(ivs []interval, assign []int, c int) (int, uint64) {
	dim := len(ivs[0].proj)
	cent := make([]float64, dim)
	var cover uint64
	n := 0
	for i := range ivs {
		if assign[i] != c {
			continue
		}
		n++
		cover += ivs[i].end - ivs[i].start
		for d := 0; d < dim; d++ {
			cent[d] += ivs[i].proj[d]
		}
	}
	if n == 0 {
		return -1, 0
	}
	for d := 0; d < dim; d++ {
		cent[d] /= float64(n)
	}
	best, bestD := -1, math.Inf(1)
	for i := range ivs {
		if assign[i] != c {
			continue
		}
		if d := dist2(ivs[i].proj, cent); d < bestD {
			best, bestD = i, d
		}
	}
	return best, cover
}

// bounds computes the plan's per-metric self-consistency error bounds:
// for each phase, the worst absolute deviation of any member from the
// representative, combined coverage-weighted across phases. This is an
// upper bound on the error of extrapolating the profile series itself
// from its representatives; applying it across sweep points carries
// the usual SimPoint assumption that phase structure is shared.
func bounds(s *telemetry.Series, ivs []interval, assign []int, plan *Plan) Bounds {
	repOf := make(map[int]int) // phase -> ivs index of representative
	for _, w := range plan.Windows {
		for i := range ivs {
			if assign[i] == w.Phase && ivs[i].start == w.Start && ivs[i].end == w.End {
				repOf[w.Phase] = i
				break
			}
		}
	}
	// Recover the raw (unnormalized) metric values by interval order:
	// ivs was built from s.Intervals skipping zero-width entries.
	raw := make([][3]float64, 0, len(ivs))
	var meanIPC, meanMPKI float64
	for i := range s.Intervals {
		iv := &s.Intervals[i]
		if iv.Instrs == 0 {
			continue
		}
		raw = append(raw, [3]float64{iv.IPC, iv.LLCMPKI, iv.TriggerRate()})
		meanIPC += iv.IPC
		meanMPKI += iv.LLCMPKI
	}
	meanIPC /= float64(len(raw))
	meanMPKI /= float64(len(raw))

	total := plan.TotalCover()
	if total == 0 {
		return Bounds{}
	}
	var b Bounds
	for _, w := range plan.Windows {
		ri, ok := repOf[w.Phase]
		if !ok {
			continue
		}
		var devIPC, devMPKI, devTrig float64
		for i := range ivs {
			if assign[i] != w.Phase {
				continue
			}
			if d := math.Abs(raw[i][0] - raw[ri][0]); d > devIPC {
				devIPC = d
			}
			if d := math.Abs(raw[i][1] - raw[ri][1]); d > devMPKI {
				devMPKI = d
			}
			if d := math.Abs(raw[i][2] - raw[ri][2]); d > devTrig {
				devTrig = d
			}
		}
		wf := float64(w.CoverInstrs) / float64(total)
		b.IPCRel += wf * devIPC
		b.LLCMPKIRel += wf * devMPKI
		b.TriggerRateAbs += wf * devTrig
	}
	if meanIPC > 0 {
		b.IPCRel /= meanIPC
	}
	if meanMPKI > 0 {
		b.LLCMPKIRel /= meanMPKI
	}
	return b
}
