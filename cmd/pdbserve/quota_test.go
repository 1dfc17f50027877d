package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestParseQuota(t *testing.T) {
	cases := []struct {
		spec string
		want server.Quota
	}{
		{"", server.Quota{}},
		{"max_concurrent:4", server.Quota{MaxConcurrent: 4}},
		{"trials_per_sec:1000,burst:5000", server.Quota{TrialsPerSec: 1000, TrialsBurst: 5000}},
		{
			"max_concurrent:2, trials_per_sec:0.5, burst:1, max_trials:100000, max_memory:1048576",
			server.Quota{MaxConcurrent: 2, TrialsPerSec: 0.5, TrialsBurst: 1, MaxTrials: 100000, MaxMemory: 1 << 20},
		},
	}
	for _, tc := range cases {
		got, err := parseQuota(tc.spec)
		if err != nil {
			t.Errorf("parseQuota(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseQuota(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseQuotaErrors(t *testing.T) {
	for _, spec := range []string{
		"max_concurrent",        // no value
		"max_concurrent:-1",     // negative
		"trials_per_sec:fast",   // not a number
		"concurrency:3",         // unknown key
		"max_trials:1e6",        // integers only
		"max_concurrent:2;ok:1", // wrong separator
	} {
		if _, err := parseQuota(spec); err == nil {
			t.Errorf("parseQuota(%q) accepted", spec)
		}
	}
}

// TestParseQuotaErrorMessages pins which rule rejects a spec: the message
// names the offending field, so an operator can fix a flag or a quota-file
// line from the error alone.
func TestParseQuotaErrorMessages(t *testing.T) {
	cases := []struct{ name, spec, wantErr string }{
		{"missing value", "max_concurrent", "wants key:value"},
		{"empty field from a trailing comma", "max_concurrent:2,", "wants key:value"},
		{"empty field from a doubled comma", "max_concurrent:2,,burst:1", "wants key:value"},
		{"unknown field", "concurrency:3", `unknown quota field "concurrency"`},
		{"empty key", ":3", `unknown quota field ""`},
		{"key is case-sensitive", "Max_Concurrent:3", "unknown quota field"},
		{"negative max_concurrent", "max_concurrent:-1", `max_concurrent "-1"`},
		{"fractional max_concurrent", "max_concurrent:1.5", `max_concurrent "1.5"`},
		{"negative trials_per_sec", "trials_per_sec:-0.5", `trials_per_sec "-0.5"`},
		{"non-numeric trials_per_sec", "trials_per_sec:fast", `trials_per_sec "fast"`},
		{"negative burst", "burst:-5", `burst "-5"`},
		{"negative max_trials", "max_trials:-1", `max_trials "-1"`},
		{"exponent max_trials", "max_trials:1e6", `max_trials "1e6"`},
		{"negative max_memory", "max_memory:-1", `max_memory "-1"`},
		{"empty value", "max_memory:", `max_memory ""`},
		{"space inside a value", "max_trials: 7", `max_trials " 7"`},
		{"error after valid fields", "max_concurrent:2,burst:x", `burst "x"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseQuota(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseQuota(%q) error = %v, want one containing %q", tc.spec, err, tc.wantErr)
			}
		})
	}
	// A later field overrides an earlier one; whitespace around pairs is
	// trimmed, a whitespace-only spec is the unlimited quota.
	if q, err := parseQuota(" max_concurrent:1 , max_concurrent:3 "); err != nil || q.MaxConcurrent != 3 {
		t.Errorf("repeated field: %+v, %v; want the last value to win", q, err)
	}
	if q, err := parseQuota("  \t"); err != nil || q != (server.Quota{}) {
		t.Errorf("whitespace spec: %+v, %v; want the unlimited quota", q, err)
	}
}

func TestParseQuotaFile(t *testing.T) {
	write := func(t *testing.T, content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "quotas.conf")
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("accepted", func(t *testing.T) {
		// Comments, blank lines and padding are skipped; an empty spec
		// allowlists a tenant unbounded; the default line may repeat (last
		// wins) and names no tenant.
		path := write(t, "# tenants\n\n  team-a = max_concurrent:4, trials_per_sec:1000  \n\t# c\nteam-b=\ndefault = max_trials:500\ndefault = max_trials:900")
		quotas, def, err := parseQuotaFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]server.Quota{"team-a": {MaxConcurrent: 4, TrialsPerSec: 1000}, "team-b": {}}
		if !reflect.DeepEqual(quotas, want) {
			t.Errorf("quotas = %+v, want %+v", quotas, want)
		}
		if def != (server.Quota{MaxTrials: 900}) {
			t.Errorf("default = %+v, want max_trials 900 (not a tenant named \"default\")", def)
		}
	})

	rejected := []struct{ name, content, wantErr string }{
		{"only the first = splits", "a=b = max_memory:7\n", `:1: unknown quota field "b = max_memory"`},
		{"no equals sign", "team-a max_concurrent:4\n", ":1: want name="},
		{"empty name", "= max_concurrent:4\n", ":1: want name="},
		{"blank name", "   = max_concurrent:4\n", ":1: want name="},
		{"unknown field", "# c\nteam-a = max_concurrent:4\nteam-b = speed:9\n", `:3: unknown quota field "speed"`},
		{"negative value", "team-a = burst:-1\n", `:1: burst "-1"`},
		{"trailing comma", "team-a = max_concurrent:4,\n", ":1: quota field"},
		{"duplicate tenant", "team-a = max_concurrent:4\n\nteam-a = max_concurrent:5\n", `:3: duplicate tenant "team-a"`},
		{"duplicate after trimming", "team-a=\n team-a =\n", `:2: duplicate tenant "team-a"`},
		{"bad default line", "default = nope\n", ":1: quota field"},
		{"a bad line voids the good ones", "team-a = max_concurrent:4\nteam-b\n", ":2: want name="},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			path := write(t, tc.content)
			quotas, def, err := parseQuotaFile(path)
			if err == nil || !strings.Contains(err.Error(), path+tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, path+tc.wantErr)
			}
			if quotas != nil || def != (server.Quota{}) {
				t.Errorf("a rejected file must not half-apply: got %+v / %+v", quotas, def)
			}
		})
	}

	if _, _, err := parseQuotaFile(filepath.Join(t.TempDir(), "missing.conf")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	if quotas, def, err := parseQuotaFile(write(t, "\n# only comments\n\n")); err != nil || len(quotas) != 0 || def != (server.Quota{}) {
		t.Errorf("comment-only file: %+v / %+v / %v, want an empty table", quotas, def, err)
	}
}

func TestSplitPeers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" ", nil},
		{",", nil},
		{" , ,, ", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 ,\tb:2\n", []string{"a:1", "b:2"}},
		{"a:1,", []string{"a:1"}},
		{",a:1,,b:2,", []string{"a:1", "b:2"}},
		{"a:1,a:1", []string{"a:1", "a:1"}}, // passed through as given, no dedup
	}
	for _, tc := range cases {
		if got := splitPeers(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitPeers(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
