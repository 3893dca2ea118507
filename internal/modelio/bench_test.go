package modelio

import (
	"bytes"
	"encoding/json"
	"testing"

	"mhla/internal/model"
	"mhla/internal/progen"
)

// churnScenarios is the number of progen scenarios the benchmarks cycle
// over: seeds 1–512, the program pool of mhla-bench's run-churn.
const churnScenarios = 512

// churnBodies returns the programs and platforms of progen seeds
// 1–512 as run-churn posts them: encoded, then compacted by the
// json.Marshal of the request body.
func churnBodies(b *testing.B) (progs, plats [][]byte) {
	b.Helper()
	for seed := int64(1); seed <= churnScenarios; seed++ {
		sc := progen.Generate(seed)
		prog, err := EncodeProgram(sc.Program)
		if err != nil {
			b.Fatal(err)
		}
		plat, err := EncodePlatform(sc.Platform)
		if err != nil {
			b.Fatal(err)
		}
		var cprog, cplat bytes.Buffer
		if err := json.Compact(&cprog, prog); err != nil {
			b.Fatal(err)
		}
		if err := json.Compact(&cplat, plat); err != nil {
			b.Fatal(err)
		}
		progs, plats = append(progs, cprog.Bytes()), append(plats, cplat.Bytes())
	}
	return progs, plats
}

func BenchmarkDecodeProgram(b *testing.B) {
	progs, _ := churnBodies(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := DecodeProgram(progs[i%len(progs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePlatform(b *testing.B) {
	_, plats := churnBodies(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := DecodePlatform(plats[i%len(plats)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramDigest(b *testing.B) {
	var ps []*model.Program
	for seed := int64(1); seed <= churnScenarios; seed++ {
		ps = append(ps, progen.Generate(seed).Program)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := ProgramDigest(ps[i%len(ps)]); err != nil {
			b.Fatal(err)
		}
	}
}
