package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// gate is one sweep's regression gate (bearbench -exp <sweep> -baseline
// FILE): B is a cell committed in the BENCH_*.json file, R a measured
// one. Gates compare dimensionless ratios, never absolute times, so they
// hold across machines of different speed.
type gate[B, R any] struct {
	sweep     string         // names the sweep in read and parse errors
	key       func(B) string // a committed cell's key
	resultKey func(R) string // a measured cell's key
	// measure runs the sweep; committed holds every committed key, so a
	// sweep may measure only those cells.
	measure func(committed map[string]bool) ([]R, error)
	// check returns the bounds one measured cell crosses, nil if none.
	check func(key string, b B, r R) error
}

// run reads the committed cells from path, measures the sweep, and fails
// for every committed cell that was not measured or crosses a bound.
func (g gate[B, R]) run(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench: reading %s baselines: %w", g.sweep, err)
	}
	var file struct {
		Baselines []B `json:"baselines"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("bench: parsing %s baselines %s: %w", g.sweep, path, err)
	}
	if len(file.Baselines) == 0 {
		return fmt.Errorf("bench: no baselines in %s", path)
	}
	committed := make(map[string]bool, len(file.Baselines))
	for _, b := range file.Baselines {
		committed[g.key(b)] = true
	}
	results, err := g.measure(committed)
	if err != nil {
		return err
	}
	measured := make(map[string]R, len(results))
	for _, r := range results {
		measured[g.resultKey(r)] = r
	}
	var failures []error
	for _, b := range file.Baselines {
		key := g.key(b)
		r, ok := measured[key]
		if !ok {
			failures = append(failures, fmt.Errorf("%s: baseline present but not measured", key))
			continue
		}
		failures = append(failures, g.check(key, b, r))
	}
	return errors.Join(failures...)
}

// floor fails a timing ratio below 80% of its committed value: the 20%
// slack absorbs shared-host noise while still catching a lost win.
func floor(key, what string, got, committed float64) error {
	if f := 0.8 * committed; got < f {
		return fmt.Errorf("%s: %s %.2fx below floor %.2fx (80%% of committed %.2fx)", key, what, got, f, committed)
	}
	return nil
}

// ceiling fails a deterministic ratio more than 25% above its committed
// value, which happens only when the code or a dataset generator changed.
func ceiling(key, what string, got, committed float64) error {
	if c := 1.25 * committed; got > c {
		return fmt.Errorf("%s: %s %.3fx above ceiling %.3fx (125%% of committed %.3fx)", key, what, got, c, committed)
	}
	return nil
}
