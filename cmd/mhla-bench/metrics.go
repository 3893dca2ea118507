package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// metricDef describes one reported metric. Bound is the share of the
// baseline median by which the metric may worsen before a change
// counts as a regression; Floor is an absolute allowance in the
// metric's unit that applies when it is larger than the share.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// The end-to-end metrics. BENCHMARK.json lists the ones that hold
// steady between runs of the same code on every workload (endToEnd);
// the others are printed and recorded in -out files too, where compare
// gates them. doc.go says why each is or is not listed.
var (
	setupS      = metricDef{"setup_s", "s", "lower", 0.25, 0.05}
	latencyMS   = metricDef{"latency_ms", "ms", "lower", 0.25, 0}
	latencyP50  = metricDef{"latency_p50_ms", "ms", "lower", 0.25, 0}
	latencyP90  = metricDef{"latency_p90_ms", "ms", "lower", 0.25, 0}
	latencyP99  = metricDef{"latency_p99_ms", "ms", "lower", 0.25, 0}
	throughput  = metricDef{"throughput_ops_s", "ops/s", "higher", 0.25, 0}
	simMaccS    = metricDef{"sim_macc_s", "Macc/s", "higher", 0.25, 0}
	heapMB      = metricDef{"heap_mb", "MB", "lower", 0.25, 0}
	errorPct    = metricDef{"error_pct", "%", "lower", 0, 0}
	endToEnd    = []metricDef{setupS, latencyMS, latencyP90, throughput}
	allEndToEnd = []metricDef{setupS, latencyMS, latencyP50, latencyP90, latencyP99, throughput, simMaccS, heapMB, errorPct}
)

// appNames are the nine paper applications in figure order; the
// per-application greedy timings are reported under these names.
var appNames = []string{"me", "qsdpcm", "cavity", "wavelet", "jpeg", "sobel", "durbin", "voice", "dab"}

// simVariants are the cache configurations the simulate workload
// replays every application through.
var simVariants = []string{"anchor", "lru", "nextline", "stride"}

// perLayer lists the per-layer metrics of a traced run, in report
// order. A layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("http.overhead_us", "us", "lower"),
		d("server.self_us", "us", "lower"),
		d("server.cache_hit_pct", "%", "higher"),
		d("server.compiles", "count", "lower"),
		d("server.in_flight_max", "count", "lower"),
		d("modelio.decode_us", "us", "lower"),
		d("modelio.digest_us", "us", "lower"),
		d("workspace.compile_us", "us", "lower"),
		d("core.assign_us", "us", "lower"),
		d("core.extend_us", "us", "lower"),
		d("core.evaluate_us", "us", "lower"),
	}
	for _, app := range appNames {
		defs = append(defs, d("assign.greedy_us."+app, "us", "lower"))
	}
	defs = append(defs,
		d("assign.allocs_per_search", "count", "lower"),
		d("assign.bnb_states_per_sweep", "count", "lower"),
		d("te.extend_us", "us", "lower"),
		d("explore.sweep_ms", "ms", "lower"),
		d("mhla.encode_us", "us", "lower"),
		d("jobs.submit_us", "us", "lower"),
		d("jobs.queue_wait_ms", "ms", "lower"),
		d("jobs.queue_wait_p99_ms", "ms", "lower"),
		d("jobs.run_ms", "ms", "lower"),
		d("jobs.polls_per_job", "count", "lower"),
		d("persist.rewarm_ms", "ms", "lower"),
		d("persist.journal_errors", "count", "lower"),
	)
	for _, v := range simVariants {
		defs = append(defs, d("cachesim.macc_s."+v, "Macc/s", "higher"))
	}
	for _, v := range simVariants[1:] {
		defs = append(defs, d("cachesim.allocs_per_replay."+v, "count", "lower"))
	}
	return append(defs,
		d("runtime.alloc_kb_per_op", "KB", "lower"),
		d("runtime.gc_cpu_pct", "%", "lower"),
		d("trace.overhead_pct", "%", "lower"),
	)
}()

// metricValue is one measured metric as it appears in -out files.
type metricValue struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor,omitempty"`
	// Raw is the value as measured when Value is in nominal-host units.
	Raw float64 `json:"raw,omitempty"`
	// N is the sample count behind a percentile or rate.
	N int `json:"n,omitempty"`
	// Note explains a value to read with care, such as a percentile
	// with fewer than minTail samples beyond it.
	Note string `json:"note,omitempty"`
}

func (d metricDef) value(v float64) metricValue {
	return metricValue{Name: d.Name, Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Floor: d.Floor}
}

// report is the outcome of one workload run.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Smoke     bool    `json:"smoke,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Correct   bool    `json:"correct"`
	// HostFactor is how much slower than nominal the host ran (see
	// calib.go).
	HostFactor float64       `json:"host_factor"`
	Metrics    []metricValue `json:"metrics"`
	PerLayer   []metricValue `json:"per_layer"`
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes the run's metrics as "name value unit" lines: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s, host %.3fx nominal)\n", r.Workload, r.Seed, r.Seconds, mode, r.HostFactor)
	list := r.Metrics
	if r.Traced {
		list = r.PerLayer
	}
	for _, m := range list {
		var notes []string
		if m.N > 0 {
			notes = append(notes, fmt.Sprintf("n=%d", m.N))
		}
		if m.Raw != 0 {
			notes = append(notes, "raw "+formatValue(m.Raw))
		}
		value := formatValue(m.Value)
		if m.Note != "" {
			value = "-"
			notes = append(notes, "omitted: "+m.Note)
		}
		line := fmt.Sprintf("%s %s %s", m.Name, value, m.Unit)
		if len(notes) > 0 {
			line += " (" + strings.Join(notes, ", ") + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, outputs correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// resultLine is the one-line JSON summary printed last: the metrics of
// the listed definitions, keyed by name (prefixed by the workload when
// several workloads ran).
func resultLine(reports []*report) ([]byte, error) {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{Correct: true, Metrics: map[string]entry{}}
	for _, r := range reports {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		defs, values := endToEnd, r.Metrics
		if r.Traced {
			defs, values = perLayer, r.PerLayer
		}
		byName := make(map[string]metricValue, len(values))
		for _, m := range values {
			byName[m.Name] = m
		}
		for _, d := range defs {
			m, ok := byName[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
			}
			key := d.Name
			if len(reports) > 1 {
				key = r.Workload + "." + d.Name
			}
			out.Metrics[key] = entry{Value: m.Value, Unit: d.Unit}
		}
	}
	return json.Marshal(out)
}
