package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSRAMEnergyAnchor(t *testing.T) {
	got := SRAMReadEnergy(1024)
	if diff := got - 1.2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SRAMReadEnergy(1KiB) = %v, want 1.2", got)
	}
	// 4x capacity => 2x energy (sqrt scaling).
	if got := SRAMReadEnergy(4096) / SRAMReadEnergy(1024); got < 1.99 || got > 2.01 {
		t.Errorf("sqrt scaling broken: ratio = %v", got)
	}
}

func TestSRAMWriteCostsMore(t *testing.T) {
	for _, c := range []int64{256, 1024, 16384} {
		if SRAMWriteEnergy(c) <= SRAMReadEnergy(c) {
			t.Errorf("write energy not above read energy at %dB", c)
		}
	}
}

func TestSRAMEnergyMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		ca, cb := int64(a)+1, int64(b)+1
		if ca > cb {
			ca, cb = cb, ca
		}
		return SRAMReadEnergy(ca) <= SRAMReadEnergy(cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRAMLatencySteps(t *testing.T) {
	cases := []struct {
		cap  int64
		want int
	}{
		{256, 1}, {8 * 1024, 1}, {8*1024 + 1, 2}, {64 * 1024, 2}, {64*1024 + 1, 3},
		{1 << 61, 17}, {1<<61 + 1, 18}, {1 << 62, 18}, {math.MaxInt64, 18},
	}
	for _, c := range cases {
		if got := SRAMLatency(c.cap); got != c.want {
			t.Errorf("SRAMLatency(%d) = %d, want %d", c.cap, got, c.want)
		}
	}
}

func TestOffChipDominatesOnChip(t *testing.T) {
	dram := SDRAMLayer()
	for _, c := range []int64{256, 1024, 16 * 1024, 64 * 1024} {
		sram := SRAMLayer("L1", c)
		if sram.EnergyRead >= dram.EnergyRead {
			t.Errorf("SRAM %dB read energy %v not below SDRAM %v", c, sram.EnergyRead, dram.EnergyRead)
		}
		if sram.LatencyRead >= dram.LatencyRead {
			t.Errorf("SRAM %dB latency %d not below SDRAM %d", c, sram.LatencyRead, dram.LatencyRead)
		}
	}
}

func TestPresetPlatformsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() interface{ Validate() error }
	}{
		{"two-level", func() interface{ Validate() error } { return TwoLevel(4096) }},
		{"two-level-nodma", func() interface{ Validate() error } { return TwoLevelNoDMA(4096) }},
		{"three-level", func() interface{ Validate() error } { return ThreeLevel(1024, 16*1024) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.make().Validate(); err != nil {
				t.Errorf("preset invalid: %v", err)
			}
		})
	}
}

func TestTwoLevelStructure(t *testing.T) {
	p := TwoLevel(2048)
	if len(p.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(p.Layers))
	}
	if p.Layers[0].Capacity != 2048 || p.Layers[0].OffChip {
		t.Errorf("L1 = %+v", p.Layers[0])
	}
	if p.Layers[1].Capacity != 0 || !p.Layers[1].OffChip {
		t.Errorf("background = %+v", p.Layers[1])
	}
	if p.DMA == nil {
		t.Error("TwoLevel has no DMA")
	}
	if TwoLevelNoDMA(2048).DMA != nil {
		t.Error("TwoLevelNoDMA has a DMA")
	}
}

func TestPresetValidateAcrossSweep(t *testing.T) {
	// The exploration sweeps L1 sizes; every point must be a valid
	// platform.
	for c := int64(128); c <= 128*1024; c *= 2 {
		if err := TwoLevel(c).Validate(); err != nil {
			t.Errorf("TwoLevel(%d): %v", c, err)
		}
	}
}

func TestSRAMEnergyZeroAndNegative(t *testing.T) {
	if got := SRAMReadEnergy(0); got != 0 {
		t.Errorf("SRAMReadEnergy(0) = %v, want 0", got)
	}
	if got := SRAMReadEnergy(-5); got != 0 {
		t.Errorf("SRAMReadEnergy(-5) = %v, want 0", got)
	}
}
