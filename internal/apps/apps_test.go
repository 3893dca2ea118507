package apps

import (
	"strings"
	"testing"

	"mhla/internal/model"
	"mhla/internal/reuse"
)

func TestRegistryHasNineApps(t *testing.T) {
	if got := len(All()); got != 9 {
		t.Fatalf("registry has %d apps, want 9 (as in the paper)", got)
	}
	domains := map[string]bool{}
	for _, a := range All() {
		domains[a.Domain] = true
		if a.Name == "" || a.Description == "" || a.L1 <= 0 || a.Build == nil {
			t.Errorf("app %+v incomplete", a.Name)
		}
	}
	// The paper's domains: motion estimation, video encoding, image
	// and audio processing.
	for _, d := range []string{"motion estimation", "video encoding", "image processing", "audio processing"} {
		if !domains[d] {
			t.Errorf("no app in domain %q", d)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("me")
	if err != nil || a.Name != "me" {
		t.Errorf("ByName(me) = %v, %v", a.Name, err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Errorf("ByName(nope) err = %v", err)
	}
	if got := len(Names()); got != 9 {
		t.Errorf("Names() = %d entries", got)
	}
}

func TestParseScale(t *testing.T) {
	for name, want := range map[string]Scale{"": Paper, "paper": Paper, "test": Test} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"tset", "Test", "PAPER", " test", "bogus"} {
		if _, err := ParseScale(name); err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("ParseScale(%q) err = %v, want unknown scale", name, err)
		}
	}
	// Every scale's name parses back to itself.
	for _, sc := range []Scale{Paper, Test} {
		if got, err := ParseScale(sc.String()); err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v", sc.String(), got, err)
		}
	}
}

func TestAllAppsValidateAndAnalyze(t *testing.T) {
	for _, app := range All() {
		for _, scale := range []Scale{Paper, Test} {
			app, scale := app, scale
			t.Run(app.Name+"/"+scale.String(), func(t *testing.T) {
				p := app.Build(scale)
				if err := p.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				counts := p.AccessCounts()
				for _, a := range p.Arrays {
					if _, ok := counts[a.Name]; !ok {
						t.Errorf("unused array %q", a.Name)
					}
				}
				an, err := reuse.Analyze(p)
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				if len(an.Chains) == 0 {
					t.Error("no reuse chains")
				}
				st := p.Stats()
				if st.AccessesExec == 0 || st.ComputeCycles == 0 {
					t.Errorf("degenerate stats: %+v", st)
				}
				if scale == Test && st.AccessesExec > 1_000_000 {
					t.Errorf("test scale too large for tracing: %d accesses", st.AccessesExec)
				}
				if scale == Paper && st.AccessesExec < 100_000 {
					t.Errorf("paper scale implausibly small: %d accesses", st.AccessesExec)
				}
			})
		}
	}
}

func TestAppsAreMemoryDominated(t *testing.T) {
	// The paper targets memory-intensive applications: out of the box
	// (18-cycle off-chip accesses) the memory time must dominate
	// compute for MHLA to matter.
	for _, app := range All() {
		p := app.Build(Paper)
		st := p.Stats()
		memCycles := st.AccessesExec * 18
		if memCycles < st.ComputeCycles {
			t.Errorf("%s: memory %d cycles < compute %d cycles — not memory dominated",
				app.Name, memCycles, st.ComputeCycles)
		}
	}
}

func TestMEStructure(t *testing.T) {
	p := BuildMEWith(DefaultMEParams())
	// 99 macroblocks x 289 candidates x 256 pixels x 2 loads.
	counts := p.AccessCounts()
	wantLoads := int64(9 * 11 * 17 * 17 * 16 * 16)
	if counts["cur"].Reads != wantLoads {
		t.Errorf("cur reads = %d, want %d", counts["cur"].Reads, wantLoads)
	}
	if counts["prev"].Reads != wantLoads {
		t.Errorf("prev reads = %d, want %d", counts["prev"].Reads, wantLoads)
	}
	if counts["mv"].Writes != 99 {
		t.Errorf("mv writes = %d, want 99", counts["mv"].Writes)
	}
	// The search-window chain must expose the sliding 32x32 box at
	// the block level.
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	var prevChain *reuse.Chain
	for _, ch := range an.Chains {
		if ch.Array.Name == "prev" {
			prevChain = ch
		}
	}
	if prevChain == nil {
		t.Fatal("no prev chain")
	}
	l2 := prevChain.Candidate(2)
	if l2.Extents[0] != 32 || l2.Extents[1] != 32 {
		t.Errorf("search window box = %v, want [32 32]", l2.Extents)
	}
}

func TestQSDPCMStructure(t *testing.T) {
	p := BuildQSDPCMWith(DefaultQSDPCMParams())
	if len(p.Blocks) != 6 {
		t.Fatalf("blocks = %d, want 6", len(p.Blocks))
	}
	names := []string{"sub4", "sub2", "me4", "me2", "me1", "qcode"}
	for i, b := range p.Blocks {
		if b.Name != names[i] {
			t.Errorf("block %d = %q, want %q", i, b.Name, names[i])
		}
	}
	// cur4 is produced in sub4 and consumed in me4 (cross-block
	// lifetime).
	counts := p.AccessCounts()
	if counts["cur4"].Writes == 0 || counts["cur4"].Reads == 0 {
		t.Errorf("cur4 not both produced and consumed: %+v", counts["cur4"])
	}
}

func TestCavityRegionShrinking(t *testing.T) {
	p := BuildCavityWith(DefaultCavityParams())
	// 640x400 input, 5-tap blur, two 3x3 stages: out 392x630.
	out := p.Array("out")
	if out.Dims[0] != 400-5+1-2-2 || out.Dims[1] != 640-5+1-2-2 {
		t.Errorf("out dims = %v", out.Dims)
	}
}

// arrayChains returns the chains of an that reference the named array.
func arrayChains(an *reuse.Analysis, name string) []*reuse.Chain {
	var out []*reuse.Chain
	for _, ch := range an.Chains {
		if ch.Array.Name == name {
			out = append(out, ch)
		}
	}
	return out
}

func TestWaveletStrideChains(t *testing.T) {
	p := BuildWaveletWith(TestWaveletParams())
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	// The single filter-tap load img[y][2x+k] forms one chain whose
	// level-1 window slides by two columns per output.
	imgChains := arrayChains(an, "img")
	if len(imgChains) != 1 {
		t.Fatalf("img chains = %d, want 1", len(imgChains))
	}
	pr := TestWaveletParams()
	l2 := imgChains[0].Candidate(2)
	if got := l2.Extents[1]; got != pr.Taps {
		t.Errorf("window extent = %d, want %d", got, pr.Taps)
	}
	if got := l2.SteadyElems(reuse.Slide); got != 2 {
		t.Errorf("steady slide = %d elems, want 2 (stride-2 window)", got)
	}
}

func TestJPEGTablesAreSmall(t *testing.T) {
	p := BuildJPEGWith(DefaultJPEGParams())
	for _, name := range []string{"ct", "q"} {
		arr := p.Array(name)
		if arr == nil {
			t.Fatalf("no table %q", name)
		}
		if arr.Bytes() != 128 {
			t.Errorf("table %s = %dB, want 128", name, arr.Bytes())
		}
		if !arr.Input {
			t.Errorf("table %s not an input", name)
		}
	}
}

func TestDurbinPadding(t *testing.T) {
	pr := DefaultDurbinParams()
	p := BuildDurbinWith(pr)
	sp := p.Array("sp")
	if sp.Dims[0] != pr.Frames*pr.FrameLen+pr.Order {
		t.Errorf("sp dims = %v", sp.Dims)
	}
}

func TestVoiceWindowSlidesByTwo(t *testing.T) {
	p := BuildVoiceWith(DefaultVoiceParams())
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range arrayChains(an, "pcm") {
		// Steady update at level 1 moves 2 samples = 4 bytes.
		if got := ch.Candidate(1).SteadyElems(reuse.Slide) * int64(ch.Array.ElemSize); got != 4 {
			t.Errorf("pcm steady slide = %dB, want 4", got)
		}
	}
}

func TestDABDeinterleaveBounds(t *testing.T) {
	for _, pr := range []DABParams{DefaultDABParams(), TestDABParams()} {
		if pr.Symbols*pr.States > pr.FFTSize {
			t.Errorf("deinterleaver out of bounds: %d*%d > %d", pr.Symbols, pr.States, pr.FFTSize)
		}
	}
	// The in-place FFT must create both read and write chains on x.
	p := BuildDABWith(TestDABParams())
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[model.AccessKind]bool{}
	for _, ch := range arrayChains(an, "x") {
		kinds[ch.Kind] = true
	}
	if !kinds[model.Read] || !kinds[model.Write] {
		t.Error("x lacks read or write chains")
	}
}

func TestScaleString(t *testing.T) {
	if Paper.String() != "paper" || Test.String() != "test" {
		t.Error("Scale.String broken")
	}
}
