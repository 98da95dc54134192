// Package prob implements the pessimistic probability arithmetic used by
// the system failure probability (SFP) analysis of Izosimov et al.,
// "Analysis and Optimization of Fault-Tolerant Embedded Systems with
// Hardened Processors" (DATE 2009), Appendix A.
//
// The paper rounds intermediate values at 10^-11 accuracy: success
// probabilities are rounded down and failure probabilities are rounded up,
// "for pessimism of fault-tolerant design". FloorP and CeilP implement this
// directed rounding. The probability of exactly f faults on a node is a sum
// over all multisets of f faulty executions drawn from the processes mapped
// on the node; that sum is the complete homogeneous symmetric polynomial
// h_f of the per-process failure probabilities, which CompleteHomogeneous
// evaluates with an O(f·m) dynamic program.
package prob

import (
	"errors"
	"math"
)

// Eps is the rounding accuracy used by the paper's SFP computations
// (10^-11; see Appendix A, footnote 2).
const Eps = 1e-11

// invEps is 1/Eps. 1e11 is an integer below 2^53 and therefore exactly
// representable in float64.
const invEps = 1e11

// FloorP rounds x down to a multiple of Eps. It is applied to success
// probabilities (probabilities of scenarios that must not be
// overestimated).
func FloorP(x float64) float64 {
	return math.Floor(x*invEps) / invEps
}

// CeilP rounds x up to a multiple of Eps. It is applied to failure
// probabilities (probabilities of scenarios that must not be
// underestimated).
func CeilP(x float64) float64 {
	return math.Ceil(x*invEps) / invEps
}

// Clamp01 clamps x into the closed interval [0, 1]. The directed-rounding
// helpers can push values marginally outside the unit interval; callers use
// Clamp01 to restore a valid probability.
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// ErrNegativeFaults is returned when a negative fault count is requested.
var ErrNegativeFaults = errors.New("prob: negative fault count")

// CompleteHomogeneous returns the values h_0, h_1, …, h_maxF of the
// complete homogeneous symmetric polynomials of p:
//
//	h_f(p) = Σ over all multisets {i_1 ≤ i_2 ≤ … ≤ i_f} of Π p_{i_l}.
//
// h_0 is 1 by convention and h_f of an empty variable set is 0 for f ≥ 1.
// In the SFP analysis, h_f of the per-process failure probabilities on a
// node equals the Σ Π p term of formula (3): the sum over all f-fault
// scenarios (combinations with repetitions of f faults on the processes
// mapped on the node).
func CompleteHomogeneous(p []float64, maxF int) ([]float64, error) {
	if maxF < 0 {
		return nil, ErrNegativeFaults
	}
	h := make([]float64, maxF+1)
	CompleteHomogeneousInto(h, p)
	return h, nil
}

// CompleteHomogeneousInto is CompleteHomogeneous writing h_0, …, h_{len(h)-1}
// into h (overwriting it), for callers that own the buffer.
func CompleteHomogeneousInto(h, p []float64) {
	if len(h) == 0 {
		return
	}
	h[0] = 1
	clear(h[1:])
	// h_f(p_1..p_i) = h_f(p_1..p_{i-1}) + p_i · h_{f-1}(p_1..p_i).
	// Iterating f in ascending order makes h[f-1] already refer to the
	// current variable set, which is exactly the recurrence above.
	for _, x := range p {
		for f := 1; f < len(h); f++ {
			h[f] += x * h[f-1]
		}
	}
}

// MultisetSum computes h_f(p) by explicit enumeration of all multisets of
// size f. It is exponential and exists to cross-check CompleteHomogeneous
// in tests; use CompleteHomogeneous everywhere else.
func MultisetSum(p []float64, f int) (float64, error) {
	if f < 0 {
		return 0, ErrNegativeFaults
	}
	var rec func(start, left int, prod float64) float64
	rec = func(start, left int, prod float64) float64 {
		if left == 0 {
			return prod
		}
		var sum float64
		for i := start; i < len(p); i++ {
			sum += rec(i, left-1, prod*p[i])
		}
		return sum
	}
	return rec(0, f, 1), nil
}

// PowSurvive returns (1-x)^n computed in a numerically stable way for tiny
// x and large n, as needed by formula (6) of the paper where the
// per-iteration non-failure probability is raised to the number of
// application iterations per time unit (τ/T).
func PowSurvive(x float64, n float64) float64 {
	if x >= 1 {
		if n == 0 {
			return 1
		}
		return 0
	}
	if x <= 0 {
		return 1
	}
	return math.Exp(n * math.Log1p(-x))
}

// UnionFail returns the probability that at least one of the independent
// failure events with probabilities pf occurs:
//
//	1 − Π (1 − pf_j)
//
// matching formula (5) of the paper. The union is accumulated as
// u ← u + x − u·x rather than 1 − Π(1−x) to avoid catastrophic
// cancellation for the tiny probabilities this analysis deals in. No
// rounding is applied; the SFP layer applies CeilP to the result.
func UnionFail(pf []float64) float64 {
	var u float64
	for _, x := range pf {
		u = u + x - u*x
	}
	return u
}
