package experiments

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func run(t *testing.T, r Runner) (Summary, string) {
	t.Helper()
	var buf bytes.Buffer
	s, err := r(&buf, Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatalf("experiment failed: %v\noutput:\n%s", err, buf.String())
	}
	return s, buf.String()
}

func TestE1GoldenPosterior(t *testing.T) {
	s, out := run(t, E1CoinExample)
	if math.Abs(s.Values["posterior_fair"]-1.0/3) > 1e-9 {
		t.Errorf("posterior fair = %v, want 1/3", s.Values["posterior_fair"])
	}
	if math.Abs(s.Values["posterior_2headed"]-2.0/3) > 1e-9 {
		t.Errorf("posterior 2headed = %v, want 2/3", s.Values["posterior_2headed"])
	}
	if !strings.Contains(out, "Figure 1(a)") || !strings.Contains(out, "W:") {
		t.Error("missing Figure 1(a) rendering")
	}
	// Figure 1(b) structure: U_S has 6 U-tuples, U_T has 2.
	if s.Values["us_tuples"] != 6 {
		t.Errorf("U_S tuples = %v, want 6 (Figure 1(b))", s.Values["us_tuples"])
	}
	if s.Values["ut_tuples"] != 2 {
		t.Errorf("U_T tuples = %v, want 2 (Figure 1(b))", s.Values["ut_tuples"])
	}
}

func TestE2GoldenEpsilon(t *testing.T) {
	s, _ := run(t, E2EpsilonGeometry)
	if math.Abs(s.Values["epsilon"]-1.0/3) > 1e-9 {
		t.Errorf("ε = %v, want 1/3", s.Values["epsilon"])
	}
	if math.Abs(s.Values["orthotope_lo"]-3.0/8) > 1e-9 || math.Abs(s.Values["orthotope_hi"]-3.0/4) > 1e-9 {
		t.Error("orthotope wrong")
	}
	if s.Values["max_closed_vs_bruteforce_diff"] > 0.02 {
		t.Errorf("closed form deviates from brute force by %v", s.Values["max_closed_vs_bruteforce_diff"])
	}
}

func TestE3ErrorWithinDelta(t *testing.T) {
	s, _ := run(t, E3AdaptivePredicate)
	for _, band := range []string{"wide", "medium", "narrow"} {
		if got := s.Values["err_rate_"+band]; got > s.Values["delta"] {
			t.Errorf("%s band error rate %v exceeds δ", band, got)
		}
	}
	if s.Values["speedup_wide"] <= 1 {
		t.Errorf("adaptive speedup on wide margins should exceed 1, got %v", s.Values["speedup_wide"])
	}
}

func TestE4FPRASWithinDelta(t *testing.T) {
	s, _ := run(t, E4KarpLubyFPRAS)
	if s.Values["worst_violation_over_delta"] > 1 {
		t.Errorf("FPRAS violation rate exceeded δ: ratio %v", s.Values["worst_violation_over_delta"])
	}
}

func TestE5ExactVsApprox(t *testing.T) {
	s, out := run(t, E5ExactVsApprox)
	if !strings.Contains(out, "karp-luby") {
		t.Error("table missing")
	}
	_ = s
}

func TestE6ClosedFormMatches(t *testing.T) {
	s, _ := run(t, E6LinearEpsilon)
	if s.Values["max_diff"] > 0.02 {
		t.Errorf("Theorem 5.2 closed form deviates: max diff %v", s.Values["max_diff"])
	}
	if s.Values["bool_unsound"] > 0 {
		t.Errorf("%v unsound Boolean-combination margins", s.Values["bool_unsound"])
	}
}

func TestE7CornerPointSound(t *testing.T) {
	s, _ := run(t, E7CornerPoint)
	if s.Values["unsound"] > 0 {
		t.Errorf("%v unsound corner-point margins", s.Values["unsound"])
	}
	if s.Values["nontrivial"] == 0 {
		t.Error("no nontrivial margins exercised")
	}
}

func TestE8SingularityBehaviour(t *testing.T) {
	s, _ := run(t, E8Singularity)
	if s.Values["certainty_always_singular"] != 1 {
		t.Error("conf=1 must be singular for every ε₀ (Example 5.7)")
	}
	if s.Values["flag_rate_at_boundary"] < 0.5 {
		t.Errorf("boundary instances flagged only %v of the time", s.Values["flag_rate_at_boundary"])
	}
	// Off the ε₀ floor, Theorem 5.8 holds: the true p ≥ 0.5 is kept with
	// probability ≥ 1 − δ.
	for _, gap := range []string{"0.2", "0.1", "0.05"} {
		if got := s.Values["kept_rate_gap"+gap]; got < 1-s.Values["delta"] {
			t.Errorf("p − c = %s: kept rate %v below 1 − δ", gap, got)
		}
	}
}

func TestE9BoundsDominateFlips(t *testing.T) {
	s, _ := run(t, E9ProvenanceBounds)
	for _, n := range []int{1, 2, 4, 8} {
		bound := s.Values[sprintfKey("fanin_bound_n%d", n)]
		flips := s.Values[sprintfKey("flip_rate_n%d", n)]
		// Reported bounds must dominate measured flip rates (allowing the
		// statistical noise of quick mode: compare against bound + slack).
		if flips > bound+0.25 {
			t.Errorf("n=%d: flip rate %v far above bound %v", n, flips, bound)
		}
	}
}

func TestE10ErrorWithinDelta(t *testing.T) {
	s, _ := run(t, E10QueryApprox)
	for _, n := range []int{4, 8, 16} {
		if got := s.Values[sprintfKey("err_rate_n%d", n)]; got > s.Values["delta"]+0.15 {
			t.Errorf("n=%d membership error rate %v well above δ", n, got)
		}
		if got := s.Values[sprintfKey("max_bound_n%d", n)]; got > s.Values["delta"]+1e-9 {
			t.Errorf("n=%d reported bound %v above δ", n, got)
		}
	}
	if s.Values["cond_prob_selected"] != 1 || s.Values["cond_prob_is_fair"] != 1 {
		t.Error("conditional-probability σ̂ did not select exactly the fair coin")
	}
}

func sprintfKey(format string, n int) string {
	return strings.ReplaceAll(format, "%d", itoa(n))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Tables are worker-count-independent (Config.Workers): every summary
// value but the timing ratio is equal at 1 and 4 workers.
func TestSummariesIndependentOfWorkers(t *testing.T) {
	for _, id := range []string{"E3", "E8", "E9", "E10"} {
		run, _, _ := Lookup(id)
		var values [2]map[string]float64
		for i, workers := range []int{1, 4} {
			s, err := run(io.Discard, Config{Seed: 42, Quick: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s at %d workers: %v", id, workers, err)
			}
			delete(s.Values, "time_ratio_largest_over_smallest")
			values[i] = s.Values
		}
		if !reflect.DeepEqual(values[0], values[1]) {
			t.Errorf("%s: summary at 1 worker %v, at 4 workers %v", id, values[0], values[1])
		}
	}
}

func TestAllAndLookup(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("expected 10 experiments, got %d", len(all))
	}
	for _, e := range all {
		if _, _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%s) failed", e.ID)
		}
	}
	if _, _, ok := Lookup("E99"); ok {
		t.Error("Lookup of unknown id should fail")
	}
}

func TestSummaryPrint(t *testing.T) {
	s := newSummary("x")
	s.Values["b"] = 2
	s.Values["a"] = 1
	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	if strings.Index(out, "a") > strings.Index(out, "b") {
		t.Error("summary keys not sorted")
	}
	var _ io.Writer = &buf
}
