package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestRecorderIDsParentsAndFile(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	root := r.add("http.request", 0, 7, at(100), at(900), nil)
	child := r.add("core.assign", root, 7, at(200), at(500), map[string]any{"app": "me"})
	if root != 1 || child != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", root, child)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.add("x", 0, 1, at(0), at(1), nil)
		}()
	}
	wg.Wait()
	spans := r.all()
	if len(spans) != 10 {
		t.Fatalf("recorded %d spans, want 10", len(spans))
	}
	seen := map[int]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
	kids := childrenOf(spans)
	if len(kids[root]) != 1 || kids[root][0].Name != "core.assign" || kids[root][0].RequestID != 7 {
		t.Fatalf("children of root = %+v", kids[root])
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	first := back[0]
	for _, key := range []string{"name", "id", "parent", "request_id", "start_ns", "end_ns"} {
		if _, ok := first[key]; !ok {
			t.Errorf("span file lacks key %q: %v", key, first)
		}
	}
	if first["start_ns"].(float64) != 100 || first["end_ns"].(float64) != 900 {
		t.Errorf("root interval = %v..%v, want 100..900", first["start_ns"], first["end_ns"])
	}
	if back[1]["attrs"].(map[string]any)["app"] != "me" {
		t.Errorf("attrs lost: %v", back[1])
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	iv := func(s, e int64) span { return span{StartNS: s, EndNS: e} }
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(10, 20), iv(50, 70)}, 70},
		{"nested child inside child", []span{iv(10, 60), iv(20, 30)}, 50},
		{"overlapping", []span{iv(10, 40), iv(30, 60)}, 50},
		{"out of order", []span{iv(70, 90), iv(10, 40), iv(30, 50)}, 40},
		{"child outlives parent", []span{iv(80, 150)}, 80},
		{"child starts before parent", []span{iv(-20, 10)}, 90},
		{"child outside parent", []span{iv(120, 130), iv(-5, 0)}, 100},
		{"children cover everything", []span{iv(0, 60), iv(50, 100)}, 0},
		{"zero-length child", []span{iv(40, 40)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
