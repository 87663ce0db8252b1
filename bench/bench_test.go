package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// benchmarkJSON is the committed manifest at the repository root.
func benchmarkJSON(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestManifest pins BENCHMARK.json to the program: the file is the
// `manifest` subcommand's output, byte for byte.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(benchmarkJSON(t)); !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run ./bench manifest > BENCHMARK.json`")
	}
}

// TestSmoke runs all four workloads, untraced and traced, at a fiftieth
// of their size: every metric BENCHMARK.json names must come out under
// its name with its unit, no verdict may be wrong, and the traced run's
// spans must nest.
func TestSmoke(t *testing.T) {
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(benchmarkJSON(t), &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runCfg{seed: 7, seconds: runSeconds * 0.02, tmp: filepath.Join(dir, "tmp"), spansDir: dir, setupReps: 1}
			for _, traced := range []bool{false, true} {
				o, err := runWorkload(w, cfg, traced)
				if err != nil {
					t.Fatalf("traced=%t: %v", traced, err)
				}
				if o.WrongVerdicts != 0 {
					t.Errorf("traced=%t: %d wrong verdicts: %s", traced, o.WrongVerdicts, o.FirstWrong)
				}
				if o.Attempted < 1 || o.Failed != 0 {
					t.Errorf("traced=%t: attempted %d, failed %d", traced, o.Attempted, o.Failed)
				}
				want := doc.EndToEnd
				if traced {
					want = doc.PerLayer
				}
				if len(o.Metrics) != len(want) {
					t.Errorf("traced=%t: %d metrics reported, BENCHMARK.json names %d", traced, len(o.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := o.Metrics[d.Name]
					switch {
					case !nameRE.MatchString(d.Name):
						t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
					case !ok:
						t.Errorf("traced=%t: metric %s missing", traced, d.Name)
					case m.Unit != d.Unit:
						t.Errorf("traced=%t: metric %s has unit %q, want %q", traced, d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
			}
			checkSpans(t, filepath.Join(dir, w.name+".spans.jsonl"))
		})
	}
}

// checkSpans reads a spans file back and checks the tree: every child
// lies within its parent and no span has negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	byID := map[int64]Span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
		byID[s.ID] = s
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) names parent %d, which was not written", s.ID, s.Name, s.Parent)
		} else if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d (%s) [%d,%d] is not within its parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d (%s) has negative self time %v", id, byID[id].Name, self)
		}
	}
	t.Logf("%s: %d spans, %d with a parent", filepath.Base(path), len(spans), children)
}

// TestFSWrapperTransparent feeds the same events to two durable stores,
// one behind the counting filesystem, and compares the logs byte for
// byte: the benchmark's seam must not change what reaches the disk.
func TestFSWrapperTransparent(t *testing.T) {
	d, err := workload.Hiring()
	if err != nil {
		t.Fatal(err)
	}
	traces := simulate(d, 5, 20, 0.2)
	logs := make([][]byte, 2)
	var counted *countFS
	for i := range logs {
		dir := t.TempDir()
		cfg := core.Config{Dir: dir, Sync: true, DisableAsyncIngest: true}
		if i == 1 {
			counted = newCountFS(nil, newTracer())
			cfg.FS = counted
		}
		sys, err := core.New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range traces {
			if err := sys.Ingest(tr.events); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.CorrelateAll(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if logs[i], err = os.ReadFile(filepath.Join(dir, "provenance.log")); err != nil {
			t.Fatal(err)
		}
	}
	if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("log differs behind the wrapper: %d bytes plain, %d bytes wrapped", len(logs[0]), len(logs[1]))
	}
	st := counted.stats()
	if st.WriteBytes != int64(len(logs[1])) || st.Syncs == 0 {
		t.Fatalf("wrapper counted %d bytes written and %d syncs for a %d-byte log", st.WriteBytes, st.Syncs, len(logs[1]))
	}
}

// TestCompare drives compare through its four verdicts and its refusals.
func TestCompare(t *testing.T) {
	mk := func(verdict, ops float64, spread map[string]float64) *suiteResult {
		return &suiteResult{
			Machine: machine{NProc: 2, GOMAXPROCS: 2}, Seconds: 10,
			Runs: []*outcome{{Workload: "check_heavy", Spread: spread, Metrics: map[string]Metric{
				"setup_s": {1, "s"}, "verdict_p50_us": {verdict, "us"}, "read_p50_us": {5, "us"},
				"ops_per_s": {ops, "1/s"}, "cpu_us_per_op": {100, "us"}, "live_heap_mb": {50, "MiB"},
			}}},
		}
	}
	verdicts := func(rows []compareRow) map[string]string {
		out := map[string]string{}
		for _, r := range rows {
			out[r.metric] = r.verdict
		}
		return out
	}
	old := mk(100, 1000, nil)
	rows, refuse := compareResults(old, mk(130, 1300, nil), endToEnd)
	if len(refuse) != 0 {
		t.Fatalf("refused: %v", refuse)
	}
	got := verdicts(rows)
	if got["verdict_p50_us"] != "worse" || got["ops_per_s"] != "better" || got["setup_s"] != "same" || got["failed_share"] != "same" {
		t.Errorf("verdicts = %v", got)
	}
	rows, _ = compareResults(old, mk(130, 1000, map[string]float64{"verdict_p50_us": 0.4}), endToEnd)
	if got := verdicts(rows); got["verdict_p50_us"] != "unresolved" {
		t.Errorf("a spread wider than the bound must leave the metric unresolved, got %v", got["verdict_p50_us"])
	}
	failing := mk(100, 1000, nil)
	failing.Runs[0].FailedShare = 0.01
	rows, _ = compareResults(old, failing, endToEnd)
	if got := verdicts(rows); got["failed_share"] != "worse" {
		t.Errorf("a larger failed_share must be worse, got %v", got["failed_share"])
	}
	other := mk(100, 1000, nil)
	other.Machine.GOMAXPROCS = 4
	if _, refuse := compareResults(old, other, endToEnd); len(refuse) == 0 {
		t.Error("compare must refuse files from machines with different cores")
	}
	invalid := mk(100, 1000, nil)
	invalid.Runs[0].Invalid = []string{"generator ran late"}
	if _, refuse := compareResults(old, invalid, endToEnd); len(refuse) == 0 {
		t.Error("compare must refuse an invalid run")
	}
	var table bytes.Buffer
	if worse := printCompare(&table, rows); worse != 1 || table.Len() == 0 {
		t.Errorf("printCompare counted %d worse rows", worse)
	}
}

// TestQuartiles pins the spread to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{5, 1, 3})
	if q1 != 1 || q3 != 5 {
		t.Errorf("quartiles(5,1,3) = %v, %v; Python gives 1, 5", q1, q3)
	}
}

// TestDriverLine checks the contract's last line: exactly four keys.
func TestDriverLine(t *testing.T) {
	var out, errs bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"--workload", "check_heavy", "--seed", "3", "--seconds", "0.2", "--trace", "0",
		"-tmp", filepath.Join(dir, "tmp"), "-spans", dir}, &out, io.MultiWriter(&errs))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
}
