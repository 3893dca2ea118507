package modelio

import (
	"bytes"
	"encoding/json"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/model"
	"mhla/internal/progen"
)

// TestProgramDigestStable: the digest of a program equals the digest
// of its decode(encode) round trip — the canonicalization the serving
// layer relies on — across a spread of generated programs.
func TestProgramDigestStable(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed).Program
		d1, err := ProgramDigest(p)
		if err != nil {
			t.Fatalf("seed %d: digest: %v", seed, err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		q, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		d2, err := ProgramDigest(q)
		if err != nil {
			t.Fatalf("seed %d: round-trip digest: %v", seed, err)
		}
		if d1 != d2 {
			t.Fatalf("seed %d: digest changed across round trip: %s != %s", seed, d1, d2)
		}
	}
}

// TestProgramDigestIgnoresWireFormatting: re-indenting, compacting or
// reordering keys of the wire JSON does not change the digest of the
// decoded program.
func TestProgramDigestIgnoresWireFormatting(t *testing.T) {
	p := progen.Generate(3).Program
	canonical, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ProgramDigest(p)
	if err != nil {
		t.Fatal(err)
	}

	// Compact the JSON (different whitespace than the canonical
	// indented form) and decode it back.
	var compact bytes.Buffer
	if err := json.Compact(&compact, canonical); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), canonical) {
		t.Fatal("compact form unexpectedly equals canonical form")
	}
	q, err := DecodeProgram(compact.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProgramDigest(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("digest depends on wire formatting: %s != %s", got, want)
	}
}

// TestProgramDigestSensitive: model changes change the digest.
func TestProgramDigestSensitive(t *testing.T) {
	base := progen.Generate(5).Program
	want, err := ProgramDigest(base)
	if err != nil {
		t.Fatal(err)
	}

	renamed := progen.Generate(5).Program
	renamed.Name = "something-else"
	if got, _ := ProgramDigest(renamed); got == want {
		t.Fatal("digest ignored the program name")
	}

	resized := progen.Generate(5).Program
	resized.Arrays[0].Dims[0]++
	if got, _ := ProgramDigest(resized); got == want {
		t.Fatal("digest ignored an array dimension")
	}

	other := progen.Generate(6).Program
	if got, _ := ProgramDigest(other); got == want {
		t.Fatal("distinct programs collided")
	}
}

// TestProgramDigestAllocsIndependentOfSize: ProgramDigest costs the
// same allocations for a small progen program as for paper-scale
// qsdpcm, whose canonical encoding is many times larger.
func TestProgramDigestAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	app, err := apps.ByName("qsdpcm")
	if err != nil {
		t.Fatal(err)
	}
	small, large := progen.Generate(1).Program, app.Build(apps.Paper)
	allocs := func(p *model.Program) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := ProgramDigest(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallData, err := EncodeProgram(small)
	if err != nil {
		t.Fatal(err)
	}
	largeData, err := EncodeProgram(large)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := allocs(large), allocs(small); got != want {
		t.Fatalf("ProgramDigest allocates %v times for qsdpcm (%d B) and %v for progen 1 (%d B)",
			got, len(largeData), want, len(smallData))
	}
}
