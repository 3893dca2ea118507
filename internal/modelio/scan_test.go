package modelio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/progen"
)

// TestScannerReadsEncodings: the fast path, not the encoding/json
// fallback, decodes every canonical program and platform encoding,
// indented and compact, to the reference's value.
func TestScannerReadsEncodings(t *testing.T) {
	for _, p := range oraclePrograms() {
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, compactJSON(t, data)} {
			want, err := unmarshalProgram(in)
			if err != nil {
				t.Fatalf("%s: reference: %v", p.Name, err)
			}
			got, ok := scanProgram(in)
			if !ok {
				t.Fatalf("%s: scanner fell back on\n%s", p.Name, in)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scanned %s, reference %s", p.Name, got, want)
			}
		}
	}
	plats := []*platform.Platform{energy.TwoLevel(1024), energy.TwoLevelNoDMA(512), energy.ThreeLevel(1024, 16*1024)}
	for seed := int64(0); seed < 64; seed++ {
		plats = append(plats, progen.Generate(seed).Platform)
	}
	for _, p := range plats {
		data, err := EncodePlatform(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, compactJSON(t, data)} {
			got, ok := scanPlatform(in)
			if !ok {
				t.Fatalf("%s: scanner fell back on\n%s", p.Name, in)
			}
			if !reflect.DeepEqual(got, p) {
				t.Fatalf("scanned %#v, want %#v", got, p)
			}
		}
	}
}

func compactJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
