// Package energy provides the analytical memory energy/latency model
// used to parameterize platforms, together with preset platform
// constructors for the experiments.
//
// The MHLA paper uses proprietary vendor models; the published
// conclusions depend only on the qualitative shape — on-chip
// scratchpad accesses are much cheaper and faster than off-chip
// accesses, and both energy and latency grow with capacity. This
// package implements the standard analytical approximation for
// embedded SRAM used throughout the scratchpad literature: energy and
// delay per access grow roughly with the square root of capacity
// (longer bit/word lines), while off-chip (S)DRAM adds a large fixed
// I/O cost per random access but streams bursts efficiently.
//
// All numbers are deliberately explicit and swappable: they are plain
// Layer values, not hidden constants.
package energy

import (
	"fmt"
	"math"

	"mhla/internal/platform"
)

// SRAM model anchor points: a 1 KiB scratchpad costs about 1.2 pJ per
// 16-bit-word read in a 0.13um-class process; energy scales with
// sqrt(capacity). Writes cost ~10% more than reads.
const (
	sramAnchorBytes  = 1024
	sramAnchorReadPJ = 1.2
	sramWriteFactor  = 1.10
)

// SRAMReadEnergy returns the model's pJ per word read of an on-chip
// scratchpad of the given capacity in bytes.
func SRAMReadEnergy(capacity int64) float64 {
	if capacity <= 0 {
		return 0
	}
	return sramAnchorReadPJ * math.Sqrt(float64(capacity)/sramAnchorBytes)
}

// SRAMWriteEnergy returns the model's pJ per word write.
func SRAMWriteEnergy(capacity int64) float64 {
	return SRAMReadEnergy(capacity) * sramWriteFactor
}

// SRAMLatency returns the access latency in cycles of an on-chip
// scratchpad of the given capacity: 1 cycle up to 8 KiB, one extra
// cycle for every 8x beyond that (pipelined larger macros).
func SRAMLatency(capacity int64) int {
	lat := 1
	for c := int64(8 * 1024); c < capacity; c *= 8 {
		lat++
		if c > math.MaxInt64/8 {
			break // the next step passes every capacity
		}
	}
	return lat
}

// Off-chip SDRAM model: a random 16-bit access costs ~24 pJ
// (low-power mobile SDRAM array + I/O) and ~10 cycles; sequential
// bursts stream at 6 bytes/cycle once set up. The resulting off-chip
// to on-chip energy ratio (20x against a 1 KiB scratchpad, 7x against
// 16 KiB) is the moderate ratio the scratchpad literature of the
// paper's era uses.
const (
	sdramReadPJ  = 24.0
	sdramWritePJ = 26.0
	sdramLatency = 10
	sdramBurstBW = 6
)

// SRAMLayer builds an on-chip scratchpad layer of the given capacity
// using the analytical model. WordBytes is 2 (16-bit embedded data
// paths, matching the pixel/sample types of the nine applications).
func SRAMLayer(name string, capacity int64) platform.Layer {
	lat := SRAMLatency(capacity)
	return platform.Layer{
		Name:               name,
		Capacity:           capacity,
		WordBytes:          2,
		EnergyRead:         SRAMReadEnergy(capacity),
		EnergyWrite:        SRAMWriteEnergy(capacity),
		LatencyRead:        lat,
		LatencyWrite:       lat,
		BurstBytesPerCycle: 8,
		OffChip:            false,
	}
}

// SDRAMLayer builds the unbounded off-chip background memory layer.
func SDRAMLayer() platform.Layer {
	return platform.Layer{
		Name:               "SDRAM",
		Capacity:           0,
		WordBytes:          2,
		EnergyRead:         sdramReadPJ,
		EnergyWrite:        sdramWritePJ,
		LatencyRead:        sdramLatency,
		LatencyWrite:       sdramLatency,
		BurstBytesPerCycle: sdramBurstBW,
		OffChip:            true,
	}
}

// DefaultDMA returns the block-transfer engine model used in the
// experiments: 28 cycles of setup per transfer (channel programming
// plus first-access latency), two channels, 30 pJ of control energy
// per transfer. Updates below 8 bytes are not worth a channel setup
// and are performed by the CPU.
func DefaultDMA() *platform.DMA {
	return &platform.DMA{SetupCycles: 28, Channels: 2, EnergyPerTransfer: 30, MinBytes: 8}
}

// SoftCopyCycles and SoftCopyPJ are the per-update control overhead
// (loop, addressing and branch instructions) of copy updates the CPU
// performs itself rather than the DMA.
const (
	softCopyCycles = 6
	softCopyPJ     = 4.0
)

// TwoLevel builds the experiment platform of the paper's figures: one
// on-chip scratchpad of the given capacity in front of off-chip SDRAM,
// with a DMA engine.
func TwoLevel(l1 int64) *platform.Platform {
	return &platform.Platform{
		Name:           fmt.Sprintf("l1-%d", l1),
		Layers:         []platform.Layer{SRAMLayer("L1", l1), SDRAMLayer()},
		DMA:            DefaultDMA(),
		SoftCopyCycles: softCopyCycles,
		SoftCopyPJ:     softCopyPJ,
	}
}

// TwoLevelNoDMA is TwoLevel without a transfer engine; per the paper,
// time extensions are not applicable on it.
func TwoLevelNoDMA(l1 int64) *platform.Platform {
	p := TwoLevel(l1)
	p.Name += "-nodma"
	p.DMA = nil
	return p
}

// ThreeLevel builds a deeper hierarchy: L1 and L2 scratchpads in front
// of SDRAM, with a DMA engine. Used by the exploration experiments.
func ThreeLevel(l1, l2 int64) *platform.Platform {
	return &platform.Platform{
		Name:           fmt.Sprintf("l1-%d-l2-%d", l1, l2),
		Layers:         []platform.Layer{SRAMLayer("L1", l1), SRAMLayer("L2", l2), SDRAMLayer()},
		DMA:            DefaultDMA(),
		SoftCopyCycles: softCopyCycles,
		SoftCopyPJ:     softCopyPJ,
	}
}
