package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// chromeTrace keeps a traced run's spans in memory and writes them at
// the end in the Chrome trace-event format internal/telemetry's tracer
// emits, with the request's trace id in each span's args so client,
// router hop and worker phases of one request line up.
type chromeTrace struct {
	base   time.Time
	events []chromeEvent
	limit  int
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Trace processes: one for the benchmark client, one per worker server.
const (
	pidClient = 10
	pidWorker = 20 // + worker index
)

// maxTraceEvents bounds the trace file; spans past it are dropped (the
// metrics still cover every request).
const maxTraceEvents = 50000

func newChromeTrace(base time.Time) *chromeTrace {
	return &chromeTrace{base: base, limit: maxTraceEvents}
}

func (t *chromeTrace) span(name, cat string, pid, tid int, start time.Time, dur time.Duration, args map[string]string) {
	if len(t.events) >= t.limit || dur <= 0 {
		return
	}
	t.events = append(t.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X", Pid: pid, Tid: tid,
		TS: us(start.Sub(t.base)), Dur: us(dur), Args: args,
	})
}

func (t *chromeTrace) process(pid int, name string) {
	t.events = append(t.events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": name}})
}

// write stores the trace as .bench_build/traces/<workload>-seed<n>.json
// under the working directory and returns the path.
func (t *chromeTrace) write(o options) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{t.events, "ns"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
