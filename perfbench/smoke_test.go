package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram checks that BENCHMARK.json names the program's
// workloads and metrics with the program's units, and that each workload's
// why states the paced rate the program uses.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, got.Name, w.name)
		}
		if want := fmt.Sprintf("paced at %d ev/s", w.rate); !strings.Contains(got.Why, want) {
			t.Errorf("%s: why %q does not say %q", w.name, got.Why, want)
		}
	}
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.spec {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, m := range c.prog {
			want = append(want, m.name+" "+m.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json %v, program %v", c.name, got, want)
		}
	}
}

// TestInputsFollowSeed checks that inputs derive from the seed alone.
func TestInputsFollowSeed(t *testing.T) {
	w, err := workloadByName("size-shift")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := newInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := newInputs(w, 1)
	b, _ := newInputs(w, 2)
	if !reflect.DeepEqual(a1.sums, a2.sums) || !reflect.DeepEqual(a1.ends[:64], a2.ends[:64]) {
		t.Error("one seed gave two different inputs")
	}
	if reflect.DeepEqual(a1.sums, b.sums) || reflect.DeepEqual(a1.ends[:64], b.ends[:64]) {
		t.Error("seeds 1 and 2 gave the same frames or phases")
	}
}

// TestAdaptLag checks that the lag grows when the stack settles late,
// dithers or never settles, rather than reading as settled at once.
func TestAdaptLag(t *testing.T) {
	for _, c := range []struct {
		name   string
		splits []int32
		lag    float64
		ok     bool
	}{
		{"settled throughout", []int32{3, 3, 3, 3}, 1, true},
		{"settles at the third event", []int32{0, 0, 3, 3}, 3, true},
		{"dithers", []int32{0, 3, 0, 3}, 4, true},
		{"never leaves the old split", []int32{0, 0, 0, 0}, 5, false},
		{"leaves the split at the end", []int32{3, 3, 3, 0}, 5, false},
	} {
		s := &sink{split: c.splits}
		if lag, ok := adaptLag(s, 0, len(c.splits), 3); lag != c.lag || ok != c.ok {
			t.Errorf("%s: lag %v ok %v, want %v %v", c.name, lag, ok, c.lag, c.ok)
		}
	}
}

// TestSettledSplits checks the splits each workload's frames should settle
// on: raw below the display size, after the resize above it, and after the
// downsample on size-shift's small frames.
func TestSettledSplits(t *testing.T) {
	for name, want := range map[string][]int32{
		"image-split": {3}, "small-reliable": {0}, "size-shift": {3, 4},
	} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in.want, want) {
			t.Errorf("%s: settles on %v, want %v", name, in.want, want)
		}
	}
}

// TestSmoke runs every workload briefly on two seeds, untraced and traced,
// and checks that each run is correct and reports every named metric with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stack for about half a minute")
	}
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range []string{"1", "2"} {
			for trace, metrics := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				name := fmt.Sprintf("%s/seed=%s/trace=%d", w.name, seed, trace)
				t.Run(name, func(t *testing.T) {
					var out bytes.Buffer
					args := []string{"--workload", w.name, "--seed", seed, "--seconds", "1", "--trace", fmt.Sprint(trace)}
					if err := run(args, &out); err != nil {
						t.Fatalf("%v\n%s", err, out.String())
					}
					lines := strings.Split(strings.TrimSpace(out.String()), "\n")
					var rec struct {
						Correct   bool
						Attempted int64
						Failed    int64
						Metrics   map[string]struct {
							Value *float64
							Unit  string
						}
					}
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
						t.Fatalf("last line is not the record: %v", err)
					}
					if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
						t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
					}
					if len(rec.Metrics) != len(metrics) {
						t.Errorf("%d metrics, want %d", len(rec.Metrics), len(metrics))
					}
					for _, m := range metrics {
						got, ok := rec.Metrics[m.Name]
						if !ok || got.Value == nil {
							t.Errorf("metric %s missing", m.Name)
						} else if got.Unit != m.Unit {
							t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
						}
					}
				})
			}
		}
	}
}
