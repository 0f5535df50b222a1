package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sfi"
	"repro/internal/workloads"
)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue the program reports from in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloadFns {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, tc := range []struct {
		kind string
		got  []def
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalogue %d", tc.kind, len(tc.got), len(tc.want))
		}
		for i, d := range tc.want {
			if g := tc.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", tc.kind, i, g, d)
			}
		}
	}
}

// TestExpectedMatchesReferences re-derives the committed FaaS
// expectations from the IR interpreter and the slow tier, and checks
// every SPEC cell is recorded at its kernel's benchmark-scale arguments.
// (Regenerating the SPEC cells takes most of a minute: --gen.)
func TestExpectedMatchesReferences(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range workloads.FaaS().Kernels {
		f, ok := e.faas(k.Name)
		if !ok {
			t.Fatalf("no expectation for %s", k.Name)
		}
		sum, err := interpChecksum(k, []uint64{f.Batch})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := slowTierRun(k, faasConfig(), []uint64{f.Batch})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRun(k.Name, f.Checksum, sum, f.Insts, st.Insts, f.Cycles, st.Cycles); err != nil {
			t.Error(err)
		}
	}
	if _, _, err := specSetup(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptedExpectationCaught runs one SPEC cell at test scale
// against an expectation built from the references, then against each
// single-field corruption of it: the clean one must pass and every
// corrupted one must count as a failed operation.
func TestCorruptedExpectationCaught(t *testing.T) {
	k, err := workloads.Spec2006().Find("473_astar")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := interpChecksum(k, k.TestArgs)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := slowTierRun(k, sfi.DefaultConfig(sfi.ModeSegue), k.TestArgs)
	if err != nil {
		t.Fatal(err)
	}
	clean := cellExp{Kernel: k.Name, Mode: "segue", Args: k.TestArgs, Checksum: sum, Insts: st.Insts, Cycles: st.Cycles}
	for _, tc := range []struct {
		name    string
		corrupt func(*cellExp)
		fails   int64
	}{
		{"clean", func(*cellExp) {}, 0},
		{"checksum", func(e *cellExp) { e.Checksum++ }, 1},
		{"insts", func(e *cellExp) { e.Insts-- }, 1},
		{"cycles", func(e *cellExp) { e.Cycles += 0.5 }, 1},
	} {
		exp := clean
		tc.corrupt(&exp)
		c := &specCell{k: k, mode: sfi.ModeSegue, mod: k.Build(false), exp: exp}
		r := &run{m: newMetrics(false)}
		runCell(c, r)
		if r.attempted != 1 || r.failed != tc.fails {
			t.Errorf("%s: attempted %d failed %d, want 1 and %d (%v)", tc.name, r.attempted, r.failed, tc.fails, r.problems)
		}
	}
}

// TestServeChecksAndConservation sends one request per affinity key
// through the in-process router and servers with the expected checksum
// of one kernel corrupted: exactly that kernel's replies count as
// failed, every layer's counters conserve, and the one gap the check
// reports is the workers' completions the client judged wrong.
func TestServeChecksAndConservation(t *testing.T) {
	sys, err := newSystem(wideShape, true)
	if err != nil {
		t.Fatal(err)
	}
	exp := map[string]faasExp{}
	for _, f := range sys.exp.FaaS {
		exp[f.Kernel] = f
	}
	bad := exp["html-templating"]
	bad.Checksum++
	exp["html-templating"] = bad
	c := &client{hc: &http.Client{Timeout: 10 * time.Second}, base: sys.base, sh: wideShape, exp: exp}
	var got tally
	var wantBad int64
	for key, k := range wideShape.keys {
		if k.kernel == "html-templating" {
			wantBad++
		}
		c.do(key, &got)
	}
	sys.close()
	if got.offered != int64(len(wideShape.keys)) || got.failed != wantBad || got.ok != got.offered-wantBad {
		t.Errorf("tally %+v, want %d offered with %d failed", got, len(wideShape.keys), wantBad)
	}
	r := &run{}
	checkConservation(r, sys, got)
	if len(r.problems) != 1 || !strings.Contains(r.problems[0], "client saw") {
		t.Errorf("conservation problems %q, want only the completed-vs-ok gap", r.problems)
	}
}

func TestQuietSlices(t *testing.T) {
	if got := quietSlices([]float64{0, 0.2, 0.01, 0.3, 0.04, 0.5, 0.6, 0.7}); !slices.Equal(got, []int{0, 2, 4}) {
		t.Fatalf("got %v, want [0 2 4]", got)
	}
	// Too few quiet slices: the quietest three.
	if got := quietSlices([]float64{0.3, 0.2, 0.1, 0.4, 0.9}); !slices.Equal(got, []int{2, 1, 0}) {
		t.Fatalf("noisy host: got %v, want [2 1 0]", got)
	}
}

// TestSummarizePoolsLatency: a tail confined to one slice of three still
// sets p99, which a median of per-slice p99s would hide.
func TestSummarizePoolsLatency(t *testing.T) {
	sh := serveShape{keys: []reqKey{{kernel: "k"}}}
	w := windowRun{start: time.Unix(0, 0), elapsed: 3 * subWindow, steal: []float64{0, 0, 0}}
	for i := 0; i < 300; i++ {
		lat := time.Millisecond
		if i < 10 {
			lat = 50 * time.Millisecond // slice 0 only
		}
		sent := w.start.Add(time.Duration(i/100)*subWindow + time.Duration(i%100)*time.Millisecond)
		w.samples = append(w.samples, sample{sent: sent, lat: lat, ok: true})
	}
	st := summarize(sh, map[string]faasExp{"k": {Insts: 1}}, w)
	if st.samples != 300 || st.rps != 100 || st.p50 != 1 || st.p99 != 50 {
		t.Fatalf("got %+v, want 300 samples, rps 100, p50 1 ms, p99 50 ms", st)
	}
}

// TestRSSProbeReadsAtBudget: the reading is taken on the budget's last
// request and not before; a nil probe is inert.
func TestRSSProbeReadsAtBudget(t *testing.T) {
	p := &rssProbe{budget: 3}
	p.count()
	p.count()
	if p.taken() {
		t.Fatal("read before the budget")
	}
	p.count()
	if !p.taken() || p.value() <= 0 {
		t.Fatalf("after the budget: taken %v, value %v", p.taken(), p.value())
	}
	var nilProbe *rssProbe
	nilProbe.count()
}
