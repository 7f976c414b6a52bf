package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// bound is an end-to-end metric's direction and the share of the old
// value by which it may get worse before -compare calls it a
// regression. A test keeps this table equal to BENCHMARK.json.
type bound struct {
	higherIsBetter bool
	share          float64
}

var endToEndBounds = map[string]bound{
	"ops_per_s":                  {true, 0.25},
	"p50_ms":                     {false, 0.25},
	"p99_ms":                     {false, 0.25},
	"setup_s":                    {false, 0.25},
	"stored_bytes_per_user_byte": {false, 0.01},
	"live_heap_mb":               {false, 0.20},
}

var errWorse = errors.New("at least one metric got worse")

// verdict compares one metric across two runs. worsening is the change
// as a share of the old value, positive when the metric got worse.
// noise is the larger of the two runs' own spreads: a change the runs
// cannot resolve from their own window-to-window scatter is reported as
// unresolved, never as same.
func verdict(old, cur metric, b bound) (worsening, noise float64, v string) {
	noise = old.Spread
	if cur.Spread > noise {
		noise = cur.Spread
	}
	if old.Value == 0 {
		return 0, noise, "unresolved"
	}
	worsening = (cur.Value - old.Value) / old.Value
	if b.higherIsBetter {
		worsening = -worsening
	}
	switch {
	case worsening > b.share && worsening > noise:
		v = "worse"
	case worsening < -b.share && -worsening > noise:
		v = "better"
	case worsening > b.share || worsening < -b.share || noise > b.share:
		v = "unresolved"
	default:
		v = "same"
	}
	return worsening, noise, v
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read report: %w", err)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns errWorse if any row's verdict is worse.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s  commit %s seed %d (%d cores, %s)\n", oldPath, old.Envelope.Commit, old.Envelope.Seed, old.Envelope.Cores, old.Envelope.GoVersion)
	fmt.Fprintf(w, "new: %s  commit %s seed %d (%d cores, %s)\n", newPath, cur.Envelope.Commit, cur.Envelope.Seed, cur.Envelope.Cores, cur.Envelope.GoVersion)
	fmt.Fprintf(w, "%-15s %-27s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "old", "new", "worsening", "bound", "noise", "verdict")
	untraced := func(r *report, name string) *result {
		for i := range r.Runs {
			if r.Runs[i].Workload == name && !r.Runs[i].Traced {
				return &r.Runs[i]
			}
		}
		return nil
	}
	worse := false
	for _, wl := range workloads {
		o, c := untraced(old, wl.name), untraced(cur, wl.name)
		if o == nil || c == nil {
			continue
		}
		if c.Failed > o.Failed {
			fmt.Fprintf(w, "%-15s %-27s %12d %12d %9s %7s %7s  worse\n", wl.name, "failed", o.Failed, c.Failed, "", "any", "")
			worse = true
		}
		for _, name := range endToEndNames {
			om, cm, b := o.EndToEnd[name], c.EndToEnd[name], endToEndBounds[name]
			chg, noise, v := verdict(om, cm, b)
			fmt.Fprintf(w, "%-15s %-27s %12.4f %12.4f %+8.1f%% %6.0f%% %6.1f%%  %s\n",
				wl.name, name, om.Value, cm.Value, 100*chg, 100*b.share, 100*noise, v)
			if v == "worse" {
				worse = true
			}
		}
	}
	if worse {
		return errWorse
	}
	return nil
}
