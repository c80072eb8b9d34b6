package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// The benchmark's rules for metric and workload names and for units.
var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAreValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(s.name) {
			t.Errorf("metric name %q is not valid", s.name)
		}
		if !validUnit.MatchString(s.unit) {
			t.Errorf("metric %s: unit %q is not valid", s.name, s.unit)
		}
		if seen[s.name] {
			t.Errorf("metric name %q is used twice", s.name)
		}
		seen[s.name] = true
	}
	for name := range workloads {
		if !validName.MatchString(name) || seen[name] {
			t.Errorf("workload name %q is not valid or clashes with a metric", name)
		}
	}
}

// TestBenchmarkFileMatchesTheCode keeps BENCHMARK.json, at the root of
// the repository, in step with the metrics and workloads this command
// prints.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
	for _, c := range []struct {
		file []metric
		code []metricSpec
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics where the code prints %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], code prints %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	for _, m := range f.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
}
