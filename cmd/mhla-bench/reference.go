package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The reference service is the benchmark's yardstick for host speed:
// a loopback JSON service built from the standard library alone, whose
// work has the same make-up as the measured requests — an HTTP round
// trip, strict JSON decoding, small allocations, maps, sorting and JSON
// encoding — so that a host that slows those down slows the reference
// alike. It shares no code with the repository, so no change under
// test can move it.

// refItem is one record of a reference request.
type refItem struct {
	Name  string  `json:"name"`
	Size  int64   `json:"size"`
	Reads []int64 `json:"reads"`
}

type refRequest struct {
	Items []refItem `json:"items"`
}

type refGroup struct {
	Prefix string   `json:"prefix"`
	Total  int64    `json:"total"`
	Names  []string `json:"names"`
}

type refResponse struct {
	Groups []refGroup `json:"groups"`
	Top    []string   `json:"top"`
	Sum    int64      `json:"sum"`
}

// refItems is the number of records in the reference request.
const refItems = 160

// refBody is the fixed reference request.
var refBody = func() []byte {
	var req refRequest
	x := uint64(1)
	for i := 0; i < refItems; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		it := refItem{Name: "a" + strconv.Itoa(int(x>>60)) + "_" + strconv.Itoa(i), Size: int64(x >> 40)}
		for k := 0; k < int(x>>61)+2; k++ {
			it.Reads = append(it.Reads, int64(x>>(k+20))&0xffff)
		}
		req.Items = append(req.Items, it)
	}
	return mustJSON(req)
}()

// refAnswer computes the reference response.
func refAnswer(req refRequest) refResponse {
	byPrefix := map[string]*refGroup{}
	var resp refResponse
	for _, it := range req.Items {
		prefix := it.Name[:2]
		g := byPrefix[prefix]
		if g == nil {
			g = &refGroup{Prefix: prefix}
			byPrefix[prefix] = g
		}
		for _, r := range it.Reads {
			g.Total += r * it.Size % 1000003
		}
		g.Names = append(g.Names, it.Name)
	}
	for _, g := range byPrefix {
		sort.Strings(g.Names)
		resp.Groups = append(resp.Groups, *g)
		resp.Sum += g.Total
	}
	sort.Slice(resp.Groups, func(i, j int) bool { return resp.Groups[i].Prefix < resp.Groups[j].Prefix })
	items := append([]refItem(nil), req.Items...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Size != items[j].Size {
			return items[i].Size > items[j].Size
		}
		return items[i].Name < items[j].Name
	})
	for _, it := range items[:16] {
		resp.Top = append(resp.Top, it.Name)
	}
	return resp
}

// refWant is the reference response every round trip must return.
var refWant = func() []byte {
	var req refRequest
	if err := json.Unmarshal(refBody, &req); err != nil {
		panic(err)
	}
	return append(mustJSON(refAnswer(req)), '\n')
}()

func refHandler(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req refRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(refAnswer(req))
}

// refOp is the reference round trip as a benchmark op.
var refOp = &op{kind: "reference", label: "reference", path: "/", body: refBody, want: refWant, weight: 1}

// refTrips is the number of reference round trips per client and
// reading.
const refTrips = 32

// refReading sends refTrips round trips on each of clients goroutines
// to the reference service and returns the process CPU time per round
// trip over its nominal time. CPU time, unlike wall time, does not
// count the moments the host ran another process instead. The garbage
// collector is off for the few megabytes the round trips allocate: a
// collection among them would charge them for marking the whole
// process's heap, whose size the code under test sets, and whether one
// falls inside a reading or just after it swung readings by half.
func refReading(c *client, clients int) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var wg sync.WaitGroup
	errs := make([]error, clients)
	c0 := processCPU()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < refTrips; i++ {
				if err := c.sync(refOp); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	used := float64(processCPU() - c0)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference service: %w", err)
		}
	}
	return used / float64(clients*refTrips) / float64(refNominalCPU), nil
}

// refNominalCPU is a reference round trip's CPU time on the nominal
// host.
const refNominalCPU = 400 * time.Microsecond

// refService is the reference service listening on a loopback port.
type refService struct {
	http   *http.Server
	client *client
	served chan struct{}
}

func startReference(conns int) (*refService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference service: %w", err)
	}
	rs := &refService{
		http:   &http.Server{Handler: http.HandlerFunc(refHandler)},
		client: newClient("http://"+ln.Addr().String(), conns),
		served: make(chan struct{}),
	}
	go func() {
		defer close(rs.served)
		rs.http.Serve(ln)
	}()
	return rs, nil
}

func (rs *refService) close() {
	rs.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.http.Shutdown(ctx); err != nil {
		rs.http.Close()
	}
	<-rs.served
}
