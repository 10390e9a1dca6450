package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"halotis/internal/analysis"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(stdout.String(), "\n")
	for _, s := range analysis.Suite() {
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, s.Name+" ") }) {
			t.Errorf("-list does not name analyzer %q:\n%s", s.Name, stdout.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "noalloc,nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error printed findings: %q", stdout.String())
	}
}

// TestRunOverModule runs the whole command over a fixture module of its
// own (testdata/mod, copied to a temporary directory): a
// //halotis:noalloc function that allocates is a finding, exit 1, and the
// same module with the allocation removed is clean, exit 0 with no output.
func TestRunOverModule(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/mod")); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 1 {
		t.Fatalf("allocating module: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "hot.go:9:") || !strings.Contains(out, "[noalloc]") || !strings.Contains(out, "make allocates") {
		t.Errorf("allocating module: findings %q, want hot.go:9's [noalloc] make", out)
	}

	src, err := os.ReadFile("hot.go")
	if err != nil {
		t.Fatal(err)
	}
	clean := strings.Replace(string(src), "buf := make([]int, len(xs))\n\tcopy(buf, xs)", "buf := xs", 1)
	if clean == string(src) {
		t.Fatal("fixture no longer holds the allocation this test removes")
	}
	if err := os.WriteFile("hot.go", []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Errorf("clean module: exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout.String(), stderr.String())
	}
}
