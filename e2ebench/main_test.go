package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"smatch/internal/match"
)

// shortConfig is a small, quick run of one workload.
func shortConfig(t *testing.T, workload string) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  1,
		workdir:  t.TempDir(),
		users:    120,
		setups:   1,
	}
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile runs every workload briefly, untraced and
// traced, and checks each emits exactly the metrics BENCHMARK.json
// declares, with their units, and passes the correctness gate.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := shortConfig(t, w)
			cfg.trace = traced
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w, traced, rep.Correct, rep.Attempted, rep.Failed, rep.mismatches)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				for _, m := range want {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestGateFiresOnFlippedAuth tampers with one Auth byte in every answer
// on join: Vf must reject it and the run must report a mismatch.
func TestGateFiresOnFlippedAuth(t *testing.T) {
	cfg := shortConfig(t, "join")
	cfg.tamper = func(res []match.Result) []match.Result {
		if len(res) > 0 {
			auth := append([]byte(nil), res[0].Auth...)
			auth[len(auth)/2] ^= 1
			res[0].Auth = auth
		}
		return res
	}
	expectMismatch(t, cfg, "Vf rejected")
}

// TestGateFiresOnSwappedID replaces one result's ID on serve: the answer
// must no longer equal the reference store's.
func TestGateFiresOnSwappedID(t *testing.T) {
	cfg := shortConfig(t, "serve")
	cfg.tamper = func(res []match.Result) []match.Result {
		if len(res) > 0 {
			res[0].ID++
		}
		return res
	}
	expectMismatch(t, cfg, "want")
}

func expectMismatch(t *testing.T, cfg config, substr string) {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.mismatches) == 0 {
		t.Fatalf("tampered answers passed the gate (attempted %d)", rep.Attempted)
	}
	if !strings.Contains(rep.mismatches[0], substr) {
		t.Fatalf("mismatch %q does not mention %q", rep.mismatches[0], substr)
	}
	if rep.Failed == 0 {
		t.Fatal("tampered operations not counted as failed")
	}
}
