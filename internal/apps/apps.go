// Package apps provides the nine real-life application models of the
// paper's evaluation: motion estimation, video encoding, image and
// audio processing kernels, modelled at the loop/array abstraction the
// MHLA flow consumes.
//
// The paper evaluates nine industrial C applications; their sources
// are not public. Each model here reproduces the canonical kernel
// structure, array dimensions and access patterns these applications
// are built from (DESIGN.md documents the substitution), so the reuse
// chains, footprints and block-transfer patterns match the memory
// behaviour of the real codes.
//
// Every application builds at two scales: Paper (realistic image/audio
// dimensions, used by the benchmark harness) and Test (down-scaled so
// the element-level trace simulator can validate the analytical models
// in unit tests).
package apps

import (
	"fmt"
	"sort"

	"mhla/internal/model"
)

// Scale selects the workload size.
type Scale int

const (
	// Paper is the realistic workload used for the figures.
	Paper Scale = iota
	// Test is a down-scaled variant for trace-validated tests.
	Test
)

// String names the scale.
func (s Scale) String() string {
	if s == Test {
		return "test"
	}
	return "paper"
}

// ParseScale is the one scale rule of the CLIs and the server: "" and
// "paper" select Paper, "test" selects Test, anything else is an
// error.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "", "paper":
		return Paper, nil
	case "test":
		return Test, nil
	}
	return Paper, fmt.Errorf("apps: unknown scale %q (want paper or test)", name)
}

// App describes one benchmark application.
type App struct {
	// Name is the registry key ("me", "qsdpcm", ...).
	Name string
	// Domain is the paper's application domain for the app.
	Domain string
	// Description summarises the kernel structure.
	Description string
	// L1 is the on-chip scratchpad capacity (bytes) used for this
	// app in the figure experiments — the paper reports gains "for
	// specific memory sizes".
	L1 int64
	// Build constructs the program at the given scale.
	Build func(s Scale) *model.Program
}

// registry holds the nine applications in figure order.
var registry = []App{
	{
		Name:        "me",
		Domain:      "motion estimation",
		Description: "full-search block motion estimation, QCIF frames, 16x16 blocks, +-8 search window",
		L1:          2048,
		Build:       BuildME,
	},
	{
		Name:        "qsdpcm",
		Domain:      "video encoding",
		Description: "quad-tree structured DPCM video encoder: subsampling, hierarchical motion estimation, quadtree coding",
		L1:          1024,
		Build:       BuildQSDPCM,
	},
	{
		Name:        "cavity",
		Domain:      "image processing",
		Description: "cavity detector: gauss blur x/y, edge detection, maximum detection over a medical image",
		L1:          8192,
		Build:       BuildCavity,
	},
	{
		Name:        "wavelet",
		Domain:      "image processing",
		Description: "two-level 2-D discrete wavelet transform, rows then columns per level",
		L1:          8192,
		Build:       BuildWavelet,
	},
	{
		Name:        "jpeg",
		Domain:      "image processing",
		Description: "JPEG-style encoder: separable 8x8 block DCT and table-driven quantization",
		L1:          16384,
		Build:       BuildJPEG,
	},
	{
		Name:        "sobel",
		Domain:      "image processing",
		Description: "Sobel edge detection, two 3x3 gradient convolutions over a VGA frame",
		L1:          1024,
		Build:       BuildSobel,
	},
	{
		Name:        "durbin",
		Domain:      "audio processing",
		Description: "LPC analysis: per-frame autocorrelation and Levinson-Durbin recursion over speech",
		L1:          512,
		Build:       BuildDurbin,
	},
	{
		Name:        "voice",
		Domain:      "audio processing",
		Description: "sub-band voice coder: 24-tap QMF analysis filterbank and codebook quantization",
		L1:          16384,
		Build:       BuildVoice,
	},
	{
		Name:        "dab",
		Domain:      "audio processing",
		Description: "DAB receiver kernels: in-place FFT with twiddle table, deinterleaving, trellis metrics",
		L1:          2048,
		Build:       BuildDAB,
	},
}

// All returns the nine applications in figure order.
func All() []App { return append([]App(nil), registry...) }

// Names returns the registry keys in figure order.
func Names() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.Name
	}
	return names
}

// ByName looks an application up.
func ByName(name string) (App, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return App{}, fmt.Errorf("apps: unknown application %q (known: %v)", name, known)
}
