package modelio

import (
	"context"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/workspace"
)

func TestRoundTripAllApps(t *testing.T) {
	// Every benchmark application must survive an encode/decode
	// round-trip bit-identically: same rendering and same evaluated
	// cost.
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			orig := app.Build(apps.Test)
			data, err := EncodeProgram(orig)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			back, err := DecodeProgram(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if orig.String() != back.String() {
				t.Errorf("round-trip changed the program:\n%s\nvs\n%s", orig, back)
			}
			plat := energy.TwoLevel(app.L1)
			ws1, err := workspace.Compile(orig)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := core.Run(context.Background(), ws1, core.Config{Platform: plat})
			if err != nil {
				t.Fatal(err)
			}
			ws2, err := workspace.Compile(back)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := core.Run(context.Background(), ws2, core.Config{Platform: plat})
			if err != nil {
				t.Fatal(err)
			}
			if r1.MHLA.Cycles != r2.MHLA.Cycles || r1.MHLA.Energy != r2.MHLA.Energy {
				t.Errorf("round-trip changed the cost: %v vs %v", r1.MHLA, r2.MHLA)
			}
		})
	}
}

func TestDecodeProgramFromHandWrittenJSON(t *testing.T) {
	data := []byte(`{
	  "name": "fir",
	  "arrays": [
	    {"name": "x", "elem_size": 2, "dims": [1040], "input": true},
	    {"name": "y", "elem_size": 2, "dims": [1024], "output": true}
	  ],
	  "blocks": [
	    {"name": "fir", "body": [
	      {"loop": {"var": "n", "trip": 1024, "body": [
	        {"loop": {"var": "k", "trip": 16, "body": [
	          {"load": {"array": "x", "index": [
	            {"terms": [{"var": "n", "coef": 1}, {"var": "k", "coef": 1}]}
	          ]}},
	          {"compute": 2}
	        ]}},
	        {"store": {"array": "y", "index": [{"terms": [{"var": "n", "coef": 1}]}]}}
	      ]}}
	    ]}
	  ]
	}`)
	p, err := DecodeProgram(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.Name != "fir" || len(p.Arrays) != 2 || len(p.Blocks) != 1 {
		t.Fatalf("decoded %s", p)
	}
	counts := p.AccessCounts()
	if counts["x"].Reads != 1024*16 || counts["y"].Writes != 1024 {
		t.Errorf("counts = %v", counts)
	}
	// And it runs through the full flow.
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), ws, core.Config{Platform: energy.TwoLevel(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MHLA.Cycles >= res.Original.Cycles {
		t.Error("no improvement on the FIR kernel")
	}
}

func TestDecodeProgramErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"bad json", "{", "unexpected end"},
		{"unknown array", `{"name":"p","arrays":[],"blocks":[
			{"name":"b","body":[{"load":{"array":"ghost","index":[]}}]}]}`, "undeclared array"},
		{"two fields", `{"name":"p","arrays":[{"name":"a","elem_size":2,"dims":[4]}],"blocks":[
			{"name":"b","body":[{"compute":1,"loop":{"var":"i","trip":2,"body":[]}}]}]}`, "exactly one"},
		{"empty node", `{"name":"p","arrays":[],"blocks":[{"name":"b","body":[{}]}]}`, "exactly one"},
		{"invalid program", `{"name":"p","arrays":[{"name":"a","elem_size":2,"dims":[4]}],"blocks":[
			{"name":"b","body":[{"loop":{"var":"i","trip":8,"body":[
				{"load":{"array":"a","index":[{"terms":[{"var":"i","coef":1}]}]}}]}}]}]}`, "bounds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := DecodeProgram([]byte(c.data))
			if err == nil {
				t.Fatal("Decode accepted broken input")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestPlatformRoundTrip(t *testing.T) {
	p := energy.ThreeLevel(1024, 16*1024)
	data, err := EncodePlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlatform(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() {
		t.Errorf("platform round-trip changed:\n%s\nvs\n%s", p, back)
	}
	if back.DMA == nil || back.DMA.Channels != p.DMA.Channels {
		t.Error("DMA lost in round-trip")
	}
}

func TestDecodePlatformRejectsInvalid(t *testing.T) {
	if _, err := DecodePlatform([]byte(`{"Name":"x","Layers":[]}`)); err == nil {
		t.Fatal("accepted an invalid platform")
	}
	if _, err := DecodePlatform([]byte(`nope`)); err == nil {
		t.Fatal("accepted junk")
	}
}
