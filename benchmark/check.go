package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// outRow is one result row as a client saw it: the non-probability columns
// rendered to a key, and the probability column.
type outRow struct {
	Key string
	P   float64
}

// opResult is what one executed op returned to its client.
type opResult struct {
	Rows []outRow
	// SampledTrials is the Karp–Luby trials the evaluation drew (0 for
	// exact ops and for ops replayed from an engine cache).
	SampledTrials int64
	// Bytes is the response size on the HTTP surface.
	Bytes int64
}

// rowKey renders a row's non-probability values (every column but the
// last) to a key that is the same whether the values came from pdb.Row or
// from decoded JSON, where every number is a float64.
func rowKey(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int64:
			parts[i] = strconv.FormatFloat(float64(x), 'g', -1, 64)
		case float64:
			parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, "\x1f")
}

// oracle maps a row key to the row's exact confidence.
type oracle map[string]float64

func newOracle(rows []outRow) oracle {
	o := make(oracle, len(rows))
	for _, r := range rows {
		o[r.Key] = r.P
	}
	return o
}

// exactTol is the relative tolerance of exact results against the oracle.
const exactTol = 1e-9

// check reports why res is not an acceptable answer to o, or nil.
//
//   - exact ops must return the oracle's rows with P equal to exactTol;
//   - conf ops must return the oracle's rows, and fail when more than a δ
//     share of them have |p̂ − p| > ε·p (the per-tuple FPRAS guarantee);
//   - σ̂ ops fail when more than a δ share of the tuples the threshold
//     decides clearly — p ≥ τ/(1−ε₀) must be present, p ≤ τ/(1+ε₀) must be
//     absent — are decided wrongly;
//   - hot ops must additionally have sampled nothing.
func check(o op, res opResult, exact oracle) error {
	if o.Hot && res.SampledTrials != 0 {
		return fmt.Errorf("hot op sampled %d trials, want a full cache replay", res.SampledTrials)
	}
	seen := make(map[string]bool, len(res.Rows))
	for _, r := range res.Rows {
		if _, ok := exact[r.Key]; !ok {
			return fmt.Errorf("row %q is not a possible tuple", r.Key)
		}
		if seen[r.Key] {
			return fmt.Errorf("row %q returned twice", r.Key)
		}
		seen[r.Key] = true
	}
	switch o.Kind {
	case kindExact, kindConf:
		if len(res.Rows) != len(exact) {
			return fmt.Errorf("%d rows, oracle has %d", len(res.Rows), len(exact))
		}
		tol, allowed := exactTol, 0.0
		if o.Kind == kindConf {
			tol, allowed = o.Eps, o.Delta
		}
		bad := 0
		for _, r := range res.Rows {
			if p := exact[r.Key]; math.Abs(r.P-p) > tol*p {
				bad++
			}
		}
		if share := float64(bad) / float64(len(exact)); share > allowed {
			return fmt.Errorf("%d of %d rows off by more than %g relative", bad, len(exact), tol)
		}
	case kindSigma:
		decided, wrong := 0, 0
		for key, p := range exact {
			switch {
			case p >= o.Tau/(1-o.Eps):
				decided++
				if !seen[key] {
					wrong++
				}
			case p <= o.Tau/(1+o.Eps):
				decided++
				if seen[key] {
					wrong++
				}
			}
		}
		if decided > 0 && float64(wrong)/float64(decided) > o.Delta {
			return fmt.Errorf("%d of %d clearly decided tuples wrong at τ=%g", wrong, decided, o.Tau)
		}
	}
	return nil
}
