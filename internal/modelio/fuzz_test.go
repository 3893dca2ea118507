package modelio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/progen"
)

// The hand-written seeds of both targets (escapes, non-ASCII and
// invalid UTF-8 names, null fields, key case, duplicate and unknown
// keys, number forms, overflow, trailing data) are committed under
// testdata/fuzz; the seeds added here are generated.

// FuzzDecodeProgram: DecodeProgram agrees with the encoding/json
// reference on accept/reject and on the error string, and an accepted
// program is deeply equal to the reference's and renders the same
// canonical bytes as the MarshalIndent oracle.
func FuzzDecodeProgram(f *testing.F) {
	var progs []*model.Program
	for seed := int64(0); seed < 16; seed++ {
		progs = append(progs, progen.Generate(seed).Program)
	}
	for _, app := range apps.All() {
		progs = append(progs, app.Build(apps.Test))
	}
	for _, p := range progs {
		data, err := EncodeProgram(p)
		addSeeds(f, data, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := decodeProgramReference(data)
		got, gerr := DecodeProgram(data)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("decode error %v, reference %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %s, reference %s", got, want)
		}
		wantBytes, err := encodeProgramOracle(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := EncodeProgram(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("canonical bytes differ:\n got %s\nwant %s", gotBytes, wantBytes)
		}
	})
}

// FuzzDecodePlatform: DecodePlatform agrees with the encoding/json
// reference on accept/reject, on the error string and, for an accepted
// platform, on the decoded value.
func FuzzDecodePlatform(f *testing.F) {
	var plats []*platform.Platform
	for _, l1 := range []int64{256, 1024, 8192} {
		plats = append(plats, energy.TwoLevel(l1), energy.TwoLevelNoDMA(l1), energy.ThreeLevel(l1, 16*l1))
	}
	for seed := int64(0); seed < 8; seed++ {
		plats = append(plats, progen.Generate(seed).Platform)
	}
	for _, p := range plats {
		data, err := EncodePlatform(p)
		addSeeds(f, data, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := decodePlatformReference(data)
		got, gerr := DecodePlatform(data)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("decode error %v, reference %v", gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, reference %#v", got, want)
		}
	})
}

// addSeeds adds an indented encoding and its compact form.
func addSeeds(f *testing.F, data []byte, err error) {
	f.Helper()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		f.Fatal(err)
	}
	f.Add(compact.Bytes())
}
