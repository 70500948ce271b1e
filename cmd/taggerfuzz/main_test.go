package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: -churn with -cache, and a family the selected
// differential does not cover, exit 2 before anything runs or is written.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-churn", "-cache"},
		{"-churn", "-topo", "fattree"},
		{"-cache", "-topo", "bcube"},
		{"-topo", "fattree"},
	} {
		out := filepath.Join(t.TempDir(), "corpus")
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-seeds", "1", "-out", out), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q: want the usage error on stderr only", args, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: the corpus directory was written", args)
		}
	}
}

// TestEveryModeSweeps runs one seed of each differential and expects its
// case string and the clean tally.
func TestEveryModeSweeps(t *testing.T) {
	for flag, want := range map[string]string{"": "ok   clos{", "-churn": "ok   churn-clos{", "-cache": "ok   cache-clos{"} {
		args := []string{"-seeds", "1", "-topo", "clos", "-par", "1", "-out", t.TempDir()}
		if flag != "" {
			args = append(args, flag)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d\n%s%s", flag, code, stdout.String(), stderr.String())
		}
		if got := stdout.String(); !strings.HasPrefix(got, want) || !strings.Contains(got, "taggerfuzz: all 1 seed(s) clean across 1 topology") {
			t.Errorf("%q: output\n%s", flag, got)
		}
	}
}
