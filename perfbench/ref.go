package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The reference service is the benchmark's control. On a shared host a
// run's latencies swing by up to a factor of two from one spell of
// minutes to the next, as the hypervisor takes the virtual CPUs away
// (steal) and neighbours load the cores; a run sits inside one spell.
// The reference runs fixed code from this program — a JSON round trip
// of a fixed document — and the load generator times it between the
// workload's ops, so its latency says how fast the machine was during
// the run. The gated latency metric, latency_p50_vs_ref, is the
// workload's latency over the reference's. Nothing in the reference
// depends on treesched: a change to treesched moves only the
// numerator.
//
// The serving workloads call it over HTTP on loopback, as its own
// process (this program with -ref-server), so it pays for the same
// wake-ups and transport as the server; bulk-scale runs it in-process
// on both cores, as its solves do.

// refDoc is the reference document: about the size of an inline-hot
// request body.
type refDoc struct {
	Nodes []refNode `json:"nodes"`
}

type refNode struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Cap    []float64 `json:"cap"`
}

var refBody = func() []byte {
	var d refDoc
	for i := 0; i < 80; i++ {
		d.Nodes = append(d.Nodes, refNode{ID: i, Parent: i / 2, Name: "node-" + strconv.Itoa(i), Cap: []float64{1, 0.5 + float64(i%7), float64(i) / 3}})
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return b
}()

// refKernel decodes, re-encodes and hashes the reference document reps
// times and returns a digest byte, so the work cannot be skipped.
func refKernel(reps int) byte {
	var out byte
	for r := 0; r < reps; r++ {
		var d refDoc
		if err := json.Unmarshal(refBody, &d); err != nil {
			panic(err)
		}
		b, err := json.Marshal(&d)
		if err != nil {
			panic(err)
		}
		sum := sha256.Sum256(b)
		out ^= sum[0]
	}
	return out
}

// serveRef runs the reference service on addr: GET /ref?reps=N runs
// refKernel(N).
func serveRef(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("GET /ref", func(w http.ResponseWriter, r *http.Request) {
		reps, err := strconv.Atoi(r.URL.Query().Get("reps"))
		if err != nil || reps < 1 {
			http.Error(w, "reps must be a positive integer", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%d\n", refKernel(reps))
	})
	return http.ListenAndServe(addr, mux)
}

// refPlan is how a serving workload calls the reference: once every
// every ops, with reps kernel repetitions, sized so a reference call
// costs about what one of the workload's ops does.
type refPlan struct {
	every, reps int
}

// startRef starts the reference service as a child process.
func startRef() (*server, error) {
	return startProcess(selfPath, func(addr string) []string { return []string{"-ref-server", addr} })
}

// refCall times one reference call on the client's reference
// connection, outside the window.
func (cl *client) refCall(plan refPlan) {
	cl.untimed(func() error { // nolint:errcheck — failures are counted below
		if cl.ref == nil {
			c, err := dial(cl.refAddr)
			if err != nil {
				cl.refFailed++
				return nil
			}
			cl.ref = c
		}
		status, _, ms, err := cl.ref.timedDo(getRequest("/ref?reps=" + strconv.Itoa(plan.reps)))
		if err != nil || status != 200 {
			cl.refFailed++
			cl.ref.close()
			cl.ref = nil
			return nil
		}
		cl.refLat = append(cl.refLat, ms)
		return nil
	})
}

// parallelRef runs refKernel on n goroutines at once and returns the
// wall time in milliseconds.
func parallelRef(n, reps int) float64 {
	begin := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refKernel(reps)
		}()
	}
	wg.Wait()
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}

// refMetrics records the reference's median latency and the workload's
// latency_p50_ms over it. A run with no reference sample has no
// comparable latency and fails.
func refMetrics(rep *report, refMs []float64, failed int64) error {
	if len(refMs) == 0 {
		return fmt.Errorf("no reference call succeeded (%d failed)", failed)
	}
	rep.Samples["ref_calls"] = int64(len(refMs))
	rep.Samples["ref_failed"] = failed
	ref := median(refMs)
	rep.e2e("ref_p50_ms", ref)
	rep.e2e("latency_p50_vs_ref", rep.EndToEnd["latency_p50_ms"].Value/ref)
	return nil
}
