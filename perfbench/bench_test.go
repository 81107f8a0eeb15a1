package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/partition"
)

// tinyScale shrinks every instance so each workload runs in about a second.
const tinyScale = 0.05

func tinyRun(t *testing.T, workload string, seed uint64, trace bool, corrupt func(*partition.Problem, partition.Assignment)) *report {
	t.Helper()
	rep, err := run(runConfig{workload: workload, seed: seed, seconds: 0.01, trace: trace, scale: tinyScale, corrupt: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// benchmarkJSON reads the workload and metric definitions of BENCHMARK.json.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []metricDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return workloads, endToEnd, perLayer
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	names, e2e, layer := benchmarkJSON(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layer, perLayerDefs)
	}
}

// notApplicable lists the per-layer metrics a workload has no layer for
// (reported as 0 with n=0).
var notApplicable = map[string][]string{
	"fixed-bisect": {"multilevel.phase_coverage_k4", "hgr.read_ms", "server.engine_ms", "server.overhead_ms",
		"server.response_kb", "server.hit_frac", "server.bypass_frac"},
	"free-huge-2w": {"multilevel.phase_coverage_k4", "hgr.read_ms", "server.engine_ms", "server.overhead_ms",
		"server.response_kb", "server.hit_frac", "server.bypass_frac"},
	"hpartd-repeat": {"multilevel.coarsest_vertices"},
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := tinyRun(t, w.name, 1, trace, nil)
			if rep.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, rep.failed, rep.attempted, rep.failures)
			}
			metrics, defs := rep.endToEnd, endToEndDefs
			if trace {
				metrics, defs = rep.perLayer, perLayerDefs
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(metrics), len(defs))
			}
			skip := map[string]bool{}
			if trace {
				for _, name := range notApplicable[w.name] {
					skip[name] = true
				}
			}
			for _, d := range defs {
				m, ok := metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case skip[d.name] && (m.n != 0 || m.Value != 0):
					t.Errorf("%s: %s should not apply, got %v (n=%d)", w.name, d.name, m.Value, m.n)
				case !skip[d.name] && m.n == 0:
					t.Errorf("%s trace=%v: %s has no samples", w.name, trace, d.name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedAssignmentFails damages every answer so that it no longer
// matches what the program reported; every op must count as failed.
func TestCorruptedAssignmentFails(t *testing.T) {
	corrupt := func(p *partition.Problem, a partition.Assignment) {
		cut := partition.Cut(p.H, a)
		for v := range a {
			old := a[v]
			a[v] = int8((int(old) + 1) % p.K)
			if p.Feasible(a) != nil || partition.Cut(p.H, a) != cut {
				return
			}
			a[v] = old
		}
		t.Error("found no move that changes the answer")
	}
	for _, w := range workloads {
		rep := tinyRun(t, w.name, 1, false, corrupt)
		if rep.attempted == 0 || rep.failed != rep.attempted {
			t.Errorf("%s: %d of %d corrupted ops counted as failed", w.name, rep.failed, rep.attempted)
		}
		if ok := rep.endToEnd["ok_frac"]; ok.Value != 0 {
			t.Errorf("%s: ok_frac %v with every op corrupted", w.name, ok.Value)
		}
	}
}

// TestSeedChangesInputsNotNames also checks that quality and the exact
// counters repeat for one seed.
func TestSeedChangesInputsNotNames(t *testing.T) {
	keys := func(m map[string]metric) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	for _, w := range workloads {
		a := tinyRun(t, w.name, 1, false, nil)
		b := tinyRun(t, w.name, 2, false, nil)
		if a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 made the same inputs (%x)", w.name, a.digest)
		}
		again := tinyRun(t, w.name, 1, false, nil)
		if again.digest != a.digest {
			t.Errorf("%s: seed 1 made different inputs", w.name)
		}
		for _, name := range []string{"mean_cut", "mean_km1"} {
			if x, y := a.endToEnd[name].Value, again.endToEnd[name].Value; x != y {
				t.Errorf("%s: %s %v then %v on seed 1", w.name, name, x, y)
			}
		}
		t1, t2 := tinyRun(t, w.name, 1, true, nil), tinyRun(t, w.name, 1, true, nil)
		for _, name := range []string{"fm.pins_scanned", "fm.pin_scans_avoided", "fm.nets_skipped", "fm.bucket_updates_saved", "multilevel.levels"} {
			if x, y := t1.perLayer[name].Value, t2.perLayer[name].Value; x != y {
				t.Errorf("%s: %s %v then %v on seed 1", w.name, name, x, y)
			}
		}
		if !reflect.DeepEqual(keys(a.endToEnd), keys(b.endToEnd)) {
			t.Errorf("%s: metric names differ between seeds: %v vs %v", w.name, keys(a.endToEnd), keys(b.endToEnd))
		}
	}
}
