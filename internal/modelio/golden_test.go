package modelio

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/model"
	"mhla/internal/progen"
)

// digestGoldenFile holds one line per program: "<label> <digest>". The
// serving layer's workspace cache and its snapshots are keyed by these
// digests, so a digest that drifts orphans every persisted workspace.
const digestGoldenFile = "testdata/digest_golden.txt"

// goldenPrograms returns the nine apps at both scales and progen seeds
// 0–99, labeled.
func goldenPrograms() (labels []string, progs []*model.Program) {
	for _, app := range apps.All() {
		for _, s := range []apps.Scale{apps.Test, apps.Paper} {
			labels = append(labels, app.Name+"/"+s.String())
			progs = append(progs, app.Build(s))
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		labels = append(labels, fmt.Sprintf("progen/%d", seed))
		progs = append(progs, progen.Generate(seed).Program)
	}
	return labels, progs
}

// TestProgramDigestGolden pins ProgramDigest of every golden program,
// both as built and after a decode of its encoding.
func TestProgramDigestGolden(t *testing.T) {
	f, err := os.Open(digestGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	labels, progs := goldenPrograms()
	if len(progs) != len(want) {
		t.Fatalf("%d programs, %s has %d lines", len(progs), digestGoldenFile, len(want))
	}
	for i, p := range progs {
		d, err := ProgramDigest(p)
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		if got := labels[i] + " " + d; got != want[i] {
			t.Errorf("program %d:\n got %s\nwant %s", i, got, want[i])
		}
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", labels[i], err)
		}
		q, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", labels[i], err)
		}
		if dq, err := ProgramDigest(q); err != nil || dq != d {
			t.Errorf("%s: decoded digest %s (%v), want %s", labels[i], dq, err, d)
		}
	}
}
