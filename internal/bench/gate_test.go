package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateCell is a canned cell for TestGate: one floor-gated speedup and one
// ceiling-gated fill ratio, keyed by name.
type gateCell struct {
	Name    string  `json:"name"`
	Speedup float64 `json:"speedup"`
	Fill    float64 `json:"fill"`
}

// TestGate drives the regression-gate helper with canned measurements:
// a passing sweep, a committed cell the sweep did not measure, a floor
// and a ceiling crossed, a failing measurement, and an empty, an
// unparsable and a missing baseline file.
func TestGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	committed := write("committed.json",
		`{"baselines":[{"name":"a","speedup":2,"fill":1},{"name":"b","speedup":1,"fill":0.5}]}`)
	run := func(path string, measured []gateCell, measureErr error) (map[string]bool, error) {
		var asked map[string]bool
		err := gate[gateCell, gateCell]{
			sweep:     "canned",
			key:       func(b gateCell) string { return b.Name },
			resultKey: func(r gateCell) string { return r.Name },
			measure: func(keys map[string]bool) ([]gateCell, error) {
				asked = keys
				return measured, measureErr
			},
			check: func(key string, b, r gateCell) error {
				return errors.Join(ceiling(key, "fill ratio", r.Fill, b.Fill), floor(key, "speedup", r.Speedup, b.Speedup))
			},
		}.run(path)
		return asked, err
	}

	// Within bounds: 1.6 is exactly the floor of 2, 1.25 exactly the
	// ceiling of 1, and an uncommitted measured cell is ignored.
	asked, err := run(committed, []gateCell{{"a", 1.6, 1.25}, {"b", 5, 0.1}, {"extra", 0, 99}}, nil)
	if err != nil {
		t.Fatalf("cells within bounds: %v", err)
	}
	if len(asked) != 2 || !asked["a"] || !asked["b"] {
		t.Fatalf("measure was told committed keys %v, want a and b", asked)
	}

	for _, tc := range []struct {
		name     string
		measured []gateCell
		want     []string
	}{
		{"missing cell", []gateCell{{"a", 2, 1}}, []string{"b: baseline present but not measured"}},
		{"floor crossed", []gateCell{{"a", 1.59, 1}, {"b", 1, 0.5}},
			[]string{"a: speedup 1.59x below floor 1.60x (80% of committed 2.00x)"}},
		{"ceiling crossed", []gateCell{{"a", 2, 1}, {"b", 1, 0.63}},
			[]string{"b: fill ratio 0.630x above ceiling 0.625x (125% of committed 0.500x)"}},
		{"every failure reported", []gateCell{{"a", 0.1, 9}},
			[]string{"a: fill ratio", "a: speedup", "b: baseline present but not measured"}},
	} {
		_, err := run(committed, tc.measured, nil)
		if err == nil {
			t.Fatalf("%s: gate passed", tc.name)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not contain %q", tc.name, err, want)
			}
		}
		if got, want := strings.Count(err.Error(), "\n")+1, len(tc.want); got != want {
			t.Errorf("%s: %d failures reported, want %d: %q", tc.name, got, want, err)
		}
	}

	failed := errors.New("sweep failed")
	if _, err := run(committed, nil, failed); !errors.Is(err, failed) {
		t.Fatalf("failing measurement: error %v, want %v", err, failed)
	}

	for _, tc := range []struct{ name, path, want string }{
		{"empty", write("empty.json", `{"baselines":[]}`), "no baselines in"},
		{"unparsable", write("garbage.json", `{"baselines":`), "parsing canned baselines"},
		{"missing", filepath.Join(dir, "absent.json"), "reading canned baselines"},
	} {
		asked, err := run(tc.path, []gateCell{{"a", 2, 1}}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s file: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if asked != nil {
			t.Errorf("%s file: the sweep ran", tc.name)
		}
	}
}
