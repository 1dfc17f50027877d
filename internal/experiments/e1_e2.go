package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/algebra"
	"repro/internal/conformance"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/stats"
	"repro/internal/urel"
)

// CoinDatabase builds the complete database of Example 2.2.
func CoinDatabase() *urel.Database {
	db := urel.NewDatabase()
	db.AddComplete("Coins", rel.FromRows(rel.NewSchema("CoinType", "Count"),
		rel.Tuple{rel.String("fair"), rel.Int(2)},
		rel.Tuple{rel.String("2headed"), rel.Int(1)},
	))
	db.AddComplete("Faces", rel.FromRows(rel.NewSchema("CoinType", "Face", "FProb"),
		rel.Tuple{rel.String("fair"), rel.String("H"), rel.Float(0.5)},
		rel.Tuple{rel.String("fair"), rel.String("T"), rel.Float(0.5)},
		rel.Tuple{rel.String("2headed"), rel.String("H"), rel.Float(1)},
	))
	db.AddComplete("Tosses", rel.FromRows(rel.NewSchema("Toss"),
		rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)},
	))
	return db
}

// coinPosterior is Example 2.2's U := π_CoinType,P1/P2→P(conf(T) ×
// conf(π_∅(T))), the posterior P(CoinType | both tosses came up heads), as a
// conformance.CoinQuery body.
func coinPosterior() algebra.Query {
	return algebra.Project{
		In: algebra.Product{
			L: algebra.Conf{In: algebra.Base{Name: "T"}, As: "P1"},
			R: algebra.Conf{In: algebra.Project{In: algebra.Base{Name: "T"}}, As: "P2"},
		},
		Targets: []expr.Target{
			expr.Keep("CoinType"),
			expr.As("P", expr.Div(expr.A("P1"), expr.A("P2"))),
		},
	}
}

// E1CoinExample reproduces Figure 1 and the tables of Examples 2.2/3.2:
// the U-relational database after R, the conf table of T, and the
// conditional-probability table U (posterior 1/3 vs prior 2/3).
func E1CoinExample(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E1")
	db := CoinDatabase()

	// Figure 1(a): the database after computing R.
	uq := conformance.CoinQuery(2, coinPosterior())
	letR := uq.(algebra.Let)
	ev := algebra.NewURelEvaluator(db)
	rRes, err := ev.Eval(letR.Def)
	if err != nil {
		return s, err
	}
	fmt.Fprintln(w, "U_R after R := π_CoinType(repair-key_∅@Count(Coins))  [Figure 1(a)]")
	for _, ut := range rRes.Rel.Tuples() {
		fmt.Fprintf(w, "  %s  %s\n", ut.D.Format(ev.DB().Vars), ut.Row)
	}
	fmt.Fprintln(w, "W:")
	fmt.Fprint(w, ev.DB().Vars.String())

	// Figure 1(b): the structure of U_S and U_T. U_S holds six U-tuples
	// (four fair ones bound to the per-toss variables, two 2headed ones);
	// U_T holds two (the fair one over three variables, the 2headed one
	// over the coin variable alone).
	evB := algebra.NewURelEvaluator(db)
	letS := letR.In.(algebra.Let)
	letT := letS.In.(algebra.Let)
	sRes, err := evB.Eval(algebra.Let{Name: letR.Name, Def: letR.Def, In: letS.Def})
	if err != nil {
		return s, err
	}
	tRes, err := evB.Eval(algebra.Let{Name: letR.Name, Def: letR.Def,
		In: algebra.Let{Name: letS.Name, Def: letS.Def, In: letT.Def}})
	if err != nil {
		return s, err
	}
	fmt.Fprintf(w, "\nU_S has %d U-tuples (Figure 1(b): 6), U_T has %d (Figure 1(b): 2)\n",
		sRes.Rel.Len(), tRes.Rel.Len())
	s.Values["us_tuples"] = float64(sRes.Rel.Len())
	s.Values["ut_tuples"] = float64(tRes.Rel.Len())

	// conf(T): the joint table of Figure 1(b)'s represented worlds.
	ev2 := algebra.NewURelEvaluator(db)
	uRes, err := ev2.Eval(uq)
	if err != nil {
		return s, err
	}
	fmt.Fprintln(w, "\nU (posterior given two heads)  [Example 2.2]")
	tbl := stats.NewTable(w, "CoinType", "P")
	out := urel.Poss(uRes.Rel)
	for _, tp := range out.Sorted() {
		tbl.Row(out.Value(tp, "CoinType").AsString(), out.Value(tp, "P").AsFloat())
		switch out.Value(tp, "CoinType").AsString() {
		case "fair":
			s.Values["posterior_fair"] = out.Value(tp, "P").AsFloat()
		case "2headed":
			s.Values["posterior_2headed"] = out.Value(tp, "P").AsFloat()
		}
	}
	tbl.Flush()
	s.Values["paper_posterior_fair"] = 1.0 / 3
	s.Values["paper_posterior_2headed"] = 2.0 / 3
	s.Values["prior_fair"] = 2.0 / 3
	return s, nil
}

// E2EpsilonGeometry reproduces Figure 2 / Example 5.4: for
// φ(x₁,x₂) = (x₁/x₂ ≥ 1/2) at p̂ = (1/2, 1/2), the maximal ε is 1/3, the
// orthotope is [3/8, 3/4]², and it touches the hyperplane 2x₁ = x₂ at
// (3/8, 3/4). A sweep over thresholds compares the closed form with
// brute-force orthotope scans.
func E2EpsilonGeometry(w io.Writer, cfg Config) (Summary, error) {
	s := newSummary("E2")
	phi := predapprox.RatioAtom(0, 1, 0.5, 2)
	p := []float64{0.5, 0.5}
	eps := phi.Margin(p)
	lo, hi := p[0]/(1+eps), p[0]/(1-eps)
	fmt.Fprintf(w, "φ(x1,x2) = x1/x2 ≥ 1/2 at p̂ = (1/2, 1/2)   [Example 5.4 / Figure 2]\n")
	fmt.Fprintf(w, "  ε = %.6f (paper: 1/3)\n", eps)
	fmt.Fprintf(w, "  orthotope = [%.4f, %.4f]² (paper: [3/8, 3/4]²)\n", lo, hi)
	fmt.Fprintf(w, "  touch point = (%.4f, %.4f) on 2x1 = x2 (paper: (3/8, 3/4))\n",
		p[0]/(1+eps), p[1]/(1-eps))
	s.Values["epsilon"] = eps
	s.Values["paper_epsilon"] = 1.0 / 3
	s.Values["orthotope_lo"] = lo
	s.Values["orthotope_hi"] = hi

	// Sweep: closed form vs brute force across thresholds c.
	fmt.Fprintln(w, "\nSweep over c for φ = x1/x2 ≥ c at p̂ = (1/2, 1/2):")
	tbl := stats.NewTable(w, "c", "ε (Thm 5.2)", "ε (brute force)", "|diff|")
	worst := 0.0
	for _, c := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		atom := predapprox.RatioAtom(0, 1, c, 2)
		got := atom.Margin(p)
		bf := predapprox.BruteForceMargin(atom, p, 0.002, 8)
		diff := math.Abs(got - bf)
		if got >= predapprox.EpsMax-1e-6 {
			diff = 0 // clamped margin: brute force saturates differently
		}
		if diff > worst {
			worst = diff
		}
		tbl.Row(c, got, bf, diff)
	}
	tbl.Flush()
	s.Values["max_closed_vs_bruteforce_diff"] = worst
	return s, nil
}
