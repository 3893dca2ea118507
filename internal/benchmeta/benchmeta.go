// Package benchmeta records the host a benchmark ran on. Every
// BENCH_*.json in the repository carries a "host" block so a
// performance claim can be weighed against the machine that produced
// it (see ROADMAP: every performance claim needs host metadata);
// benchmeta is the one place that block is assembled, so writers
// cannot drift apart or silently omit a field.
package benchmeta

import "runtime"

// Host describes the machine and runtime a benchmark executed on.
// The JSON field names match the hand-authored "host" blocks of the
// existing BENCH_*.json files.
type Host struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Collect captures the current host: GOOS/GOARCH, the CPU count, the
// effective GOMAXPROCS (what the schedulable parallelism actually
// was — on a quota-limited container it can be far below NumCPU) and
// the Go version.
func Collect() Host {
	return Host{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
}
