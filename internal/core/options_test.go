package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestOptionsSurface pins the exported fields of Options. Every field is
// a setting a deployment can reach, and ROADMAP aim 2 holds that new
// knobs need a measured reason: adding, removing or renaming one must be
// a deliberate edit of this list, reviewed with the number behind it.
func TestOptionsSurface(t *testing.T) {
	want := []string{
		"K",
		"Mode",
		"SerialAdmission",
		"Planner",
		"Chooser",
		"ChooserSample",
		"MaxSolverSteps",
		"Workers",
		"WALPath",
		"SyncWAL",
		"WALSegments",
		"SlowOpThreshold",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Options fields = %q\nwant %q", got, want)
	}
}
