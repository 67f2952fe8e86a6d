package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// TestParseExp pins -exp parsing: names split on commas, "all" selects
// every experiment (phase included), and any unknown name is an error
// that lists the valid ones instead of a silent run of nothing.
func TestParseExp(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want []string // sorted; nil means an error
	}{
		{"fig7", []string{"fig7"}},
		{"fig7,fig8", []string{"fig7", "fig8"}},
		{"all", slices.Sorted(slices.Values(experiments))},
		{"phase", []string{"phase"}},
		{"bogus", nil},
		{"fig7,bogus", nil},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			got, err := parseExp(tc.exp)
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parseExp(%q) = %v, want an error", tc.exp, got)
				}
				if !strings.Contains(err.Error(), strings.Join(experiments, "|")) {
					t.Fatalf("error %q does not list the valid names", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, tc.want) {
				t.Fatalf("parseExp(%q) = %v, want %v", tc.exp, names, tc.want)
			}
		})
	}
}
