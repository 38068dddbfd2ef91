package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"voiceguard/internal/rng"
)

// runTiny runs one workload at a size small enough for go test and
// returns its exit code, parsed result line and standard error.
func runTiny(t *testing.T, cfg config) (int, resultJSON, string) {
	t.Helper()
	if cfg.golden == nil {
		g, err := loadGolden("")
		if err != nil {
			t.Fatal(err)
		}
		cfg.golden = g
	}
	if cfg.seconds == 0 {
		cfg.seconds = 0.5
	}
	cfg.maxBatches = 1
	var stdout, stderr bytes.Buffer
	code := runWorkload(cfg, &stdout, &stderr)
	res, err := lastResult(stdout.Bytes())
	if err != nil {
		t.Fatalf("%s: %v; stderr:\n%s", cfg.workload, err, stderr.String())
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	if code == 0 {
		for _, n := range names {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("%s: result line lacks %s", cfg.workload, n)
			}
		}
	}
	t.Logf("%s: exit %d, stderr:\n%s", cfg.workload, code, stderr.String())
	return code, res, stderr.String()
}

// TestCleanRunsPass is the control for the two failure tests below:
// unmodified tiny runs pass every check.
func TestCleanRunsPass(t *testing.T) {
	for _, w := range workloadOrder {
		code, res, _ := runTiny(t, config{workload: w, seed: 7})
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: exit %d, result %+v; want a clean pass", w, code, res)
		}
	}
}

// TestTracedRunsReportLayers runs one simulator and one wire workload
// traced: every per-layer metric is on the result line and the spans
// file is written.
func TestTracedRunsReportLayers(t *testing.T) {
	for _, w := range []string{workloadFleet, workloadGuard} {
		out := filepath.Join(t.TempDir(), "spans.jsonl")
		code, res, _ := runTiny(t, config{workload: w, seed: 7, trace: true, traceOut: out})
		if code != 0 || !res.Correct {
			t.Errorf("%s: exit %d, result %+v; want a clean pass", w, code, res)
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Errorf("%s: spans file: %v", w, err)
		}
	}
}

// TestInjectedWrongVerdictFails flips one verdict in each wire
// workload's DecisionFunc. The checks on what the plane did must catch
// it: the burst's arrival upstream, the plane's Stats and, on
// wire-guard, the cloud's command counts.
func TestInjectedWrongVerdictFails(t *testing.T) {
	arrival := `burst 100000003: (released burst arrived upstream 0 times|a dropped burst reached upstream)`
	want := map[string][]string{
		workloadProxy: {arrival, `LiveProxy stats .* disagree`},
		workloadGuard: {arrival, `LiveGuard stats .* disagree`, `cloud (completed|aborted) \d+`},
	}
	for _, w := range []string{workloadProxy, workloadGuard} {
		code, res, stderr := runTiny(t, config{workload: w, seed: 7, injectWrongVerdict: true})
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v; want the wrong verdict caught", w, code, res)
		}
		for _, re := range want[w] {
			if !regexp.MustCompile(re).MatchString(stderr) {
				t.Errorf("%s: no failed check matches %q", w, re)
			}
		}
	}
}

// TestCorruptGoldenFails corrupts the golden digest of the first batch
// a seed runs; the digest check must catch it, through the command's
// -golden flag.
func TestCorruptGoldenFails(t *testing.T) {
	for _, w := range []string{workloadFleet, workloadQuiet} {
		g, err := loadGolden("")
		if err != nil {
			t.Fatal(err)
		}
		const seed = 7
		first := rng.New(seed).Split("perfbench/order/" + w).Perm(simPoolSize)[0]
		d := g[w][first][0]
		g[w][first][0] = strings.Repeat("0", len(d)-1) + "1"
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "golden.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", w, "-seed", "7", "-seconds", "0.01", "-golden", path}, &stdout, &stderr)
		res, err := lastResult(stdout.Bytes())
		if err != nil {
			t.Fatalf("%s: %v; stderr:\n%s", w, err, stderr.String())
		}
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v; want the corrupt golden digest caught", w, code, res)
		}
	}
}
