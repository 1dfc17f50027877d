package urel

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/vars"
)

// spillDB builds a small relation covering every value kind, empty and
// multi-binding condition columns, and duplicate rows (dedup-index paths).
func spillDB() *Relation {
	r := NewRelation(rel.NewSchema("K", "S", "F", "B", "N"))
	d2 := vars.MustAssignment(
		vars.Binding{Var: 1, Alt: 0},
		vars.Binding{Var: 7, Alt: 3},
	)
	rows := []struct {
		d   vars.Assignment
		row rel.Tuple
	}{
		{nil, rel.Tuple{rel.Int(-42), rel.String("alpha"), rel.Float(0.125), rel.Bool(true), rel.Null()}},
		{d2, rel.Tuple{rel.Int(1 << 40), rel.String(""), rel.Float(-1e300), rel.Bool(false), rel.Null()}},
		{vars.MustAssignment(vars.Binding{Var: 3, Alt: 1}), rel.Tuple{rel.Int(0), rel.String("β-utf8"), rel.Float(0), rel.Bool(true), rel.Int(9)}},
		// Exact duplicate of the first pair: exercises the dedup index
		// rebuild on hydrate.
		{nil, rel.Tuple{rel.Int(-42), rel.String("alpha"), rel.Float(0.125), rel.Bool(true), rel.Null()}},
	}
	for _, p := range rows {
		r.Add(p.d, p.row)
	}
	return r
}

func TestSpillRoundTrip(t *testing.T) {
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	r := spillDB()
	want := relFingerprint(r)
	wantLen, wantBytes := r.Len(), r.bytes

	sp.spillOut(r)
	if !r.Spilled() {
		t.Fatal("relation not spilled")
	}
	if r.tuples != nil || r.idx.Built() {
		t.Fatal("spilled relation retains in-memory tuple storage")
	}
	if r.Len() != wantLen {
		t.Fatalf("Len on spilled relation = %d, want %d", r.Len(), wantLen)
	}
	if sp.Files() != 1 || sp.Bytes() <= 0 {
		t.Fatalf("spill accounting: files=%d bytes=%d", sp.Files(), sp.Bytes())
	}

	if err := r.hydrate(); err != nil {
		t.Fatal(err)
	}
	if got := relFingerprint(r); got != want {
		t.Errorf("hydrated relation differs from original:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if r.bytes != wantBytes {
		t.Errorf("hydrated footprint = %d, want %d", r.bytes, wantBytes)
	}

	// Dedup index must be rebuilt: re-adding an existing pair is a no-op.
	r.Add(nil, rel.Tuple{rel.Int(-42), rel.String("alpha"), rel.Float(0.125), rel.Bool(true), rel.Null()})
	if r.Len() != wantLen {
		t.Errorf("dedup index lost on hydrate: Len=%d after duplicate Add, want %d", r.Len(), wantLen)
	}

	// Second spill of an already-written relation reuses the file.
	sp.spillOut(r)
	if sp.Files() != 1 {
		t.Errorf("re-spill created a new file: files=%d", sp.Files())
	}
	if err := r.hydrate(); err != nil {
		t.Fatal(err)
	}
	if got := relFingerprint(r); got != want {
		t.Error("second hydrate differs from original")
	}
}

func TestSpilledAccessPanics(t *testing.T) {
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	r := spillDB()
	sp.spillOut(r)
	defer func() {
		if recover() == nil {
			t.Fatal("Tuples() on a spilled relation did not panic")
		}
	}()
	r.Tuples()
}

// TestSpillExecParity is the out-of-core bit-identity contract: the same
// operator pipeline run with a budget small enough to force heavy spilling
// produces output byte-identical (content and order) to the unbudgeted
// in-memory run, at several worker counts.
func TestSpillExecParity(t *testing.T) {
	a, b, _ := execDB()
	pred := expr.Ge(expr.A("A"), expr.CInt(3))
	targets := []expr.Target{expr.Keep("K"), expr.As("S", expr.Add(expr.A("A"), expr.A("B")))}

	run := func(x *Exec) (string, string, string, string) {
		j := x.Join(a, b)
		s := x.Select(j, pred)
		p := x.Project(j, targets)
		u, err := x.Union(s, x.Select(j, pred))
		if err != nil {
			t.Fatal(err)
		}
		lin := lineageFingerprint(x.Lineage(u))
		x.Ensure(s, p, u)
		if err := x.Err(); err != nil {
			t.Fatalf("spill error: %v", err)
		}
		return relFingerprint(s), relFingerprint(p), relFingerprint(u), lin
	}

	base := NewExec(sched.New(4), NewCounters())
	wantS, wantP, wantU, wantLin := run(base)

	for _, workers := range []int{1, 4, 8} {
		sp, err := NewSpill(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		x := NewExec(sched.New(workers), NewCounters()).
			WithBudget(NewMemBudget(1 << 15)).
			WithSpill(sp)
		gotS, gotP, gotU, gotLin := run(x)
		if sp.Files() == 0 || sp.Bytes() == 0 {
			t.Fatalf("workers=%d: budget of 32KiB never spilled (files=%d)", workers, sp.Files())
		}
		if gotS != wantS {
			t.Errorf("workers=%d: spilled Select differs from in-memory run", workers)
		}
		if gotP != wantP {
			t.Errorf("workers=%d: spilled Project differs from in-memory run", workers)
		}
		if gotU != wantU {
			t.Errorf("workers=%d: spilled Union differs from in-memory run", workers)
		}
		if gotLin != wantLin {
			t.Errorf("workers=%d: spilled Lineage differs from in-memory run", workers)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillRepairKeyParity covers the remaining registered operator plus
// DiffComplete under spilling.
func TestSpillRepairKeyParity(t *testing.T) {
	base0 := rel.NewRelation(rel.NewSchema("K", "W"))
	for i := 0; i < 4000; i++ {
		base0.Add(rel.Tuple{rel.Int(int64(i % 700)), rel.Int(int64(i%7 + 1))})
	}
	comp := FromComplete(base0)

	run := func(x *Exec) (string, string) {
		tab := vars.NewTable()
		rk, err := x.RepairKey(comp, []string{"K"}, "W", tab, "w")
		if err != nil {
			t.Fatal(err)
		}
		half := NewRelation(comp.schema)
		for _, t := range comp.tuples[:comp.Len()/2] {
			half.addPair(utHash(t.D, t.Row), t.D, t.Row, false)
		}
		d, err := x.DiffComplete(comp, half)
		if err != nil {
			t.Fatal(err)
		}
		x.Ensure(rk, d)
		if err := x.Err(); err != nil {
			t.Fatalf("spill error: %v", err)
		}
		return relFingerprint(rk), relFingerprint(d)
	}

	base := NewExec(sched.New(4), NewCounters())
	wantRK, wantD := run(base)

	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	x := NewExec(sched.New(4), NewCounters()).
		WithBudget(NewMemBudget(1 << 14)).
		WithSpill(sp)
	gotRK, gotD := run(x)
	if sp.Files() == 0 {
		t.Fatal("budget of 16KiB never spilled")
	}
	if gotRK != wantRK {
		t.Error("spilled RepairKey differs from in-memory run")
	}
	if gotD != wantD {
		t.Error("spilled DiffComplete differs from in-memory run")
	}
}

// SweepSpills removes exactly the spill directories a dead process left
// behind: a live owner's (two servers may share the parent), an ownerless
// one (a NewSpill in progress) and anything that is not a spill directory
// all stay.
func TestSweepSpillsRemovesOnlyDeadOwners(t *testing.T) {
	parent := t.TempDir()
	live, err := NewSpill(parent)
	if err != nil {
		t.Fatal(err)
	}
	// A pid that is certainly dead: a child that has exited and been reaped.
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	mkdir := func(name, owner string) string {
		dir := filepath.Join(parent, name)
		if err := os.Mkdir(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		if owner != "" {
			if err := os.WriteFile(filepath.Join(dir, ownerFile), []byte(owner), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	deadPid := strconv.Itoa(child.Process.Pid)
	stale := mkdir("pdb-spill-stale", deadPid)
	if err := os.WriteFile(filepath.Join(stale, "rel-000001.spill"), []byte("leftover"), 0o600); err != nil {
		t.Fatal(err)
	}
	kept := []string{
		live.Dir(),
		mkdir("pdb-spill-ownerless", ""),
		mkdir("pdb-spill-garbled", "not a pid"),
		mkdir("other-dir", deadPid),
	}
	if n := SweepSpills(parent); n != 1 {
		t.Errorf("SweepSpills removed %d directories, want 1", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("dead owner's directory survived the sweep (stat: %v)", err)
	}
	for _, dir := range kept {
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("sweep removed %s: %v", dir, err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(live.Dir()); !os.IsNotExist(err) {
		t.Errorf("Close left the spill directory behind (stat: %v)", err)
	}
}
