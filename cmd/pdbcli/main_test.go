package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// base returns a config with the flag defaults.
func base(rels relFlags, query string) cliConfig {
	return cliConfig{rels: rels, query: query, eps0: 0.05, delta: 0.1, seed: 1}
}

func TestRunCoinQuery(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n2headed,1\n")
	cfg := base(relFlags{"Coins=" + coins}, "conf(project[CoinType](repairkey[@Count](Coins)))")
	if err := run(cfg); err != nil {
		t.Fatalf("exact run failed: %v", err)
	}
	cfg.approx = true
	if err := run(cfg); err != nil {
		t.Fatalf("approx run failed: %v", err)
	}
}

// TestRunProfiles checks the -cpuprofile/-memprofile flags produce
// non-empty pprof files on both evaluation paths.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n2headed,1\n")
	cfg := base(relFlags{"Coins=" + coins}, "conf(project[CoinType](repairkey[@Count](Coins)))")
	cfg.cpuprofile = filepath.Join(dir, "cpu.pprof")
	cfg.memprofile = filepath.Join(dir, "mem.pprof")
	cfg.approx = true
	if err := run(cfg); err != nil {
		t.Fatalf("profiled run failed: %v", err)
	}
	for _, p := range []string{cfg.cpuprofile, cfg.memprofile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n")
	cfg := base(relFlags{"Coins=" + coins}, "conf(Coins)")
	cfg.explain = true
	if err := run(cfg); err != nil {
		t.Fatalf("explain run failed: %v", err)
	}
	// Schema errors are caught statically at Prepare.
	if err := run(base(relFlags{"Coins=" + coins}, "select[Nope = 1](Coins)")); err == nil {
		t.Error("static schema validation should reject unknown attribute")
	}
}

func TestRunQueryFile(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n2headed,1\n")
	qf := writeFile(t, dir, "q.ua", "R := repairkey[@Count](Coins);\nposs(R);\n")
	cfg := base(relFlags{"Coins=" + coins}, "")
	cfg.queryFile = qf
	if err := run(cfg); err != nil {
		t.Fatalf("query file run failed: %v", err)
	}
}

func TestRunTimeout(t *testing.T) {
	dir := t.TempDir()
	// 400 independent coin flips (repair-key per ID), conf[∅] ≈ 1, and a σ̂
	// threshold only 0.01 away: the margin drives the doubling loop to its
	// round cap over a 400-clause lineage — millions of trials, far longer
	// than the timeout (40 flips stopped being enough when the sampling
	// kernel got ~10× faster).
	var sb strings.Builder
	sb.WriteString("ID,Present,W\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,1,1\n%d,0,1\n", i, i)
	}
	rel := writeFile(t, dir, "r.csv", sb.String())
	cfg := base(relFlags{"R=" + rel},
		"aselect[p1 >= 0.99 over conf[]](project[ID](select[Present = 1](repairkey[ID@W](R))))")
	cfg.approx = true
	cfg.eps0 = 0.001
	cfg.delta = 0.0005
	cfg.timeout = 30 * time.Millisecond
	err := run(cfg)
	if err == nil {
		t.Fatal("expected a timeout error")
	}
	if !strings.Contains(err.Error(), "timed out after") {
		t.Errorf("timeout error %q should mention the timeout", err)
	}
}

func TestRunOptionValidation(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n")
	cfg := base(relFlags{"Coins=" + coins}, "conf(Coins)")
	cfg.approx = true
	cfg.delta = 1.5
	err := run(cfg)
	if err == nil {
		t.Fatal("out-of-range -delta should be rejected")
	}
	if !strings.Contains(err.Error(), "WithDelta") {
		t.Errorf("error %q should come from option validation", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	coins := writeFile(t, dir, "coins.csv", "CoinType,Count\nfair,2\n")
	cases := []struct {
		name  string
		rels  relFlags
		query string
		qfile string
	}{
		{"no query", relFlags{"Coins=" + coins}, "", ""},
		{"bad rel spec", relFlags{"Coins"}, "Coins", ""},
		{"missing file", relFlags{"Coins=/nonexistent.csv"}, "Coins", ""},
		{"parse error", relFlags{"Coins=" + coins}, "select[", ""},
		{"unknown relation", relFlags{"Coins=" + coins}, "Nope", ""},
		{"missing query file", nil, "", filepath.Join(dir, "missing.ua")},
	}
	for _, c := range cases {
		cfg := base(c.rels, c.query)
		cfg.queryFile = c.qfile
		if err := run(cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
