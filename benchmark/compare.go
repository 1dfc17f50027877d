package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// exactCounts are the per-layer counts that must repeat exactly between two
// traced passes over the same ops of the same code.
var exactCounts = []string{"karpluby.trials_per_query", "core.restarts", "urel.lineage_groups"}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of agreement.
const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "differs"
)

// agreement judges one end-to-end metric of two runs of the same code: ok
// when they lie within bound of each other, differs when not, unresolved
// when the samples cannot carry the metric at all (a 90th percentile with
// fewer than minBeyond samples beyond it).
func agreement(a, b, bound float64, resolved bool) string {
	switch {
	case !resolved:
		return verdictUnresolved
	case math.Abs(a-b) <= bound*math.Min(math.Abs(a), math.Abs(b)):
		return verdictOK
	default:
		return verdictDiffers
	}
}

// compare prints, for every workload the two documents share, one line per
// end-to-end metric and exact count, and returns 1 if any differs.
func compare(specPath, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b document
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	inB := map[string]workloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	differs := false
	report := func(workload, metric string, va, vb float64, verdict string) {
		fmt.Printf("%s %s %g %g %s\n", workload, metric, va, vb, verdict)
		differs = differs || verdict == verdictDiffers
	}
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		if ua, ub := wa.Untraced, wb.Untraced; ua != nil && ub != nil {
			for _, d := range spec.EndToEnd {
				resolved := d.Name != "query_p90_ms" || ua.P90Resolved && ub.P90Resolved
				report(wa.Name, d.Name, ua.Metrics[d.Name], ub.Metrics[d.Name],
					agreement(ua.Metrics[d.Name], ub.Metrics[d.Name], d.Bound, resolved))
			}
			verdict := verdictOK
			if ua.Failed+ub.Failed > 0 {
				verdict = verdictDiffers
			}
			report(wa.Name, "failed", float64(ua.Failed), float64(ub.Failed), verdict)
		}
		if ta, tb := wa.Traced, wb.Traced; ta != nil && tb != nil {
			for _, name := range exactCounts {
				va, vb := ta.PrefixCounts[name], tb.PrefixCounts[name]
				verdict := verdictOK
				switch {
				case ta.PrefixOps != tb.PrefixOps:
					// Medians over different op prefixes are not comparable.
					verdict = verdictUnresolved
				case va != vb:
					verdict = verdictDiffers
				}
				report(wa.Name, name, va, vb, verdict)
			}
		}
	}
	if differs {
		return 1
	}
	return 0
}
