package main

import (
	"bytes"
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
