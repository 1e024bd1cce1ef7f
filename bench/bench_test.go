package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tiny runs one workload at its tiny size: a warm-up, one timed rep and,
// when tracing, the traced rep.
func tiny(t *testing.T, name string, log *traceLog, trace bool, corrupt int) *report {
	t.Helper()
	cfg := config{seed: 11, reps: 1, trace: trace, tiny: true, corrupt: corrupt}
	w, err := newWorkload(name, cfg.seed, cfg.tiny)
	if err != nil {
		t.Fatal(err)
	}
	return runWorkload(context.Background(), 0, name, w, cfg, log)
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEndNames, perLayerNames map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEndNames, perLayerNames = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEndNames[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayerNames[m.Name] = m.Unit
	}
	return endToEndNames, perLayerNames
}

// emitted parses the JSON line writeResult prints for one report.
func emitted(t *testing.T, r *report, trace bool) result {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeResult(&buf, []*report{r}, trace); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("result line %q: %v", buf.String(), err)
	}
	return res
}

// exactCounts are the per-layer metrics that must repeat exactly at a seed.
var exactCounts = func() []string {
	names := []string{"sweep.cells", "sweep.trials", "sweep.slots",
		"campaign.lease_attempts", "campaign.duplicates", "campaign.envelope_bytes"}
	for _, r := range routes {
		names = append(names, r+".trials", r+".slots")
	}
	return names
}()

func TestWorkloads(t *testing.T) {
	wantE2E, wantLayer := declared(t)
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			log := newTraceLog()
			first := tiny(t, name, log, true, 0)
			second := tiny(t, name, log, true, 0)
			for _, r := range []*report{first, second} {
				if len(r.problems) > 0 || r.failed > 0 {
					t.Fatalf("checks failed (%d of %d): %v", r.failed, r.attempted, r.problems)
				}
				// Warm-up, timed rep, traced rep: the traced pass must
				// render the same bytes as the untraced one.
				if len(r.digests) != 3 || r.digests[2] != r.digests[0] {
					t.Fatalf("rep digests %v, want 3 equal", r.digests)
				}
			}

			for trace, want := range map[bool]map[string]string{false: wantE2E, true: wantLayer} {
				res := emitted(t, first, trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if !validName.MatchString(k) {
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", k)
					}
					if m.Unit != want[k] {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", k, m.Unit, want[k])
					}
				}
				var wantNames []string
				for k := range want {
					wantNames = append(wantNames, k)
				}
				slices.Sort(got)
				slices.Sort(wantNames)
				if !slices.Equal(got, wantNames) {
					t.Errorf("trace=%v: emitted %v, BENCHMARK.json declares %v", trace, got, wantNames)
				}
			}
			for _, m := range endToEnd {
				if v := emitted(t, first, false).Metrics[m.name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, v)
				}
			}

			for _, c := range exactCounts {
				if first.layers[c] != second.layers[c] {
					t.Errorf("%s: %v then %v, want an exact repeat", c, first.layers[c], second.layers[c])
				}
			}
			if name != "paper_tables" && first.layers["sweep.slots"] == 0 {
				t.Errorf("sweep.slots = 0 on a SpecDoc workload")
			}
			for _, r := range routes {
				busy, exec := first.layers[r+".busy_frac"], first.layers["sweep.execute_frac"]
				if busy > workers*exec*1.001 {
					t.Errorf("%s.busy_frac %v exceeds %d × sweep.execute_frac %v", r, busy, workers, exec)
				}
			}
			checkNesting(t, log)
		})
	}
}

// checkNesting requires every span to lie inside its workload span, and
// the trace file to be valid JSON.
func checkNesting(t *testing.T, log *traceLog) {
	t.Helper()
	spans := log.spans
	for _, s := range spans {
		root := s
		for root.parent >= 0 {
			root = spans[root.parent]
		}
		if s.end < 0 || s.start < root.start || s.end > root.end {
			t.Errorf("span %q [%v, %v] is not inside its workload span %q [%v, %v]",
				s.name, s.start, s.end, root.name, root.start, root.end)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := log.write(path, workloadNames); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) <= len(workloadNames) {
		t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// A corrupted output must trip the check and count as a failed operation.
func TestCorruptedOutputFails(t *testing.T) {
	r := tiny(t, "paper_tables", newTraceLog(), false, 2)
	if r.failed != 1 || len(r.problems) != 1 || !strings.Contains(r.problems[0], "digest") {
		t.Fatalf("failed=%d problems=%v, want the corrupted rep's digest mismatch", r.failed, r.problems)
	}
	if res := emitted(t, r, false); res.Correct || res.Failed != 1 {
		t.Fatalf("result correct=%v failed=%d, want incorrect with 1 failure", res.Correct, res.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same data.
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
