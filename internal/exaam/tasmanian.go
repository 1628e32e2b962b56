// Package exaam implements the ExaAM uncertainty-quantification pipeline of
// §4.2: Stage 0 builds a UQ grid (TASMANIAN-style sparse grid) over process
// parameters; Stage 1 runs melt-pool thermal simulations (AdditiveFOAM, even
// and odd runs plus a gather step) and microstructure generation (ExaCA)
// over the cartesian product of thermal cases and microstructure UQ
// parameters; Stage 3 runs ExaConstit local-property ensembles over loading
// directions × temperatures × RVEs and a final optimization step.
//
// The physics codes are replaced by calibrated task models (the paper's
// published shapes: 4 nodes per AdditiveFOAM task, 1 node per ExaCA task,
// 8 nodes and 10–25 min per ExaConstit task); the orchestration — what
// Figures 3–5 measure — is exact.
package exaam

import (
	"math"
	"sort"
)

// SparseGrid generates a Smolyak sparse grid with Clenshaw-Curtis points on
// [-1,1]^dim at the given level — the role TASMANIAN plays in UQ Stage 0
// ("Stage 0 generates the UQ grid using TASMANIAN"). Points are returned
// deduplicated in deterministic (lexicographic) order.
func SparseGrid(dim, level int) [][]float64 {
	if dim <= 0 || level < 0 {
		return nil
	}
	// 1-D node tables are shared across every index combination instead of
	// recomputed per dimension, and each level-index tuple is expanded in
	// place (grids[pos] rebinding during the walk) rather than materialized.
	cc := make([][]float64, level+1)
	for l := 0; l <= level; l++ {
		cc[l] = ccPoints(l)
	}
	seen := map[string]bool{}
	var out [][]float64
	grids := make([][]float64, dim)
	pt := make([]float64, dim)
	var keyBuf []byte
	emit := func(pt []float64) {
		// Quantized-key lookup on a reused buffer; the key string is only
		// materialized when the point is new.
		keyBuf = appendPointKey(keyBuf[:0], pt)
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out = append(out, append([]float64(nil), pt...))
		}
	}
	var walk func(pos, budget int)
	walk = func(pos, budget int) {
		if pos == dim {
			crossRec(pt, grids, 0, emit)
			return
		}
		for l := 0; l <= budget; l++ {
			grids[pos] = cc[l]
			walk(pos+1, budget-l)
		}
	}
	walk(0, level)
	sort.Sort(pointsLex(out))
	return out
}

// pointsLex sorts points lexicographically. Points are deduplicated before
// sorting, so the (unstable) sort has a unique fixed point.
type pointsLex [][]float64

func (p pointsLex) Len() int      { return len(p) }
func (p pointsLex) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p pointsLex) Less(i, j int) bool {
	for k := range p[i] {
		if p[i][k] != p[j][k] {
			return p[i][k] < p[j][k]
		}
	}
	return false
}

// ccPoints returns the 1-D Clenshaw-Curtis nodes at a level: 1 node at level
// 0, 2^l+1 nodes at level l>=1.
func ccPoints(level int) []float64 {
	if level == 0 {
		return []float64{0}
	}
	n := 1<<uint(level) + 1
	pts := make([]float64, n)
	for i := 0; i < n; i++ {
		pts[i] = -math.Cos(math.Pi * float64(i) / float64(n-1))
		// Snap numeric zeros so deduplication across levels works.
		if math.Abs(pts[i]) < 1e-12 {
			pts[i] = 0
		}
	}
	return pts
}

// crossRec emits every point of the cartesian product of grids into the pt
// scratch buffer. A plain recursive function (not a closure pair) so the
// walk itself allocates nothing.
func crossRec(pt []float64, grids [][]float64, pos int, emit func([]float64)) {
	if pos == len(grids) {
		emit(pt)
		return
	}
	for _, v := range grids[pos] {
		pt[pos] = v
		crossRec(pt, grids, pos+1, emit)
	}
}

// appendPointKey appends pt's quantized dedup key to b (reusable scratch).
func appendPointKey(b []byte, pt []float64) []byte {
	for _, v := range pt {
		q := int64(math.Round(v * 1e9))
		for i := 0; i < 8; i++ {
			b = append(b, byte(q>>(8*i)))
		}
		b = append(b, ':')
	}
	return b
}
