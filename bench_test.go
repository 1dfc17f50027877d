// Root-level benchmark harness: one benchmark per reproduced paper
// artifact (internal/experiments' E1–E10). Each benchmark runs the
// corresponding experiment driver in quick mode, so `go test -bench=.
// -benchmem` regenerates every figure/example/theorem measurement;
// cmd/pdbrepro prints the full tables.
package repro

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	run, _, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := experiments.Config{Seed: 2008, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1CoinExample regenerates Figure 1 / Example 2.2 (the coin
// U-relations and the posterior table U).
func BenchmarkE1CoinExample(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2EpsilonGeometry regenerates Figure 2 / Example 5.4 (the
// ε-maximization geometry).
func BenchmarkE2EpsilonGeometry(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3AdaptivePredicate regenerates the Figure 3 / Theorem 5.8
// adaptive-vs-naive comparison on the engine's σ̂.
func BenchmarkE3AdaptivePredicate(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4KarpLubyFPRAS regenerates the Proposition 4.2 (ε,δ) grid.
func BenchmarkE4KarpLubyFPRAS(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5ExactVsApprox regenerates the Theorem 3.4 vs Corollary 4.3
// crossover table.
func BenchmarkE5ExactVsApprox(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6LinearEpsilon regenerates the Theorem 5.2 closed-form
// validation sweep.
func BenchmarkE6LinearEpsilon(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7CornerPoint regenerates the Theorem 5.5 corner-criterion
// validation sweep.
func BenchmarkE7CornerPoint(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Singularity regenerates the Definition 5.6 / Example 5.7
// singularity cost table.
func BenchmarkE8Singularity(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9ProvenanceBounds regenerates the Lemma 6.4 / Example 6.5
// fan-in bound table.
func BenchmarkE9ProvenanceBounds(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10QueryApprox regenerates the Theorem 6.7 end-to-end table.
func BenchmarkE10QueryApprox(b *testing.B) { benchExperiment(b, "E10") }
