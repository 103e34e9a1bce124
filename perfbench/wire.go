package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// conn is one HTTP/1.1 keep-alive connection. Requests are written as
// pre-built bytes, so the timed path does no marshalling.
type conn struct {
	c   net.Conn
	br  *bufio.Reader
	buf bytes.Buffer // the last reply body; reused across calls
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// request is one pre-built HTTP request: header bytes and body bytes.
type request struct {
	head []byte
	body []byte
}

func postRequest(path, contentType string, body []byte) request {
	head := "POST " + path + " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: " + contentType +
		"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return request{head: []byte(head), body: body}
}

func getRequest(path string) request {
	return request{head: []byte("GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")}
}

func deleteRequest(path string) request {
	return request{head: []byte("DELETE " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")}
}

// do writes req and reads the whole reply. The returned body aliases an
// internal buffer that the next call overwrites; copy what must outlive
// it.
func (c *conn) do(req request) (status int, body []byte, err error) {
	bufs := net.Buffers{req.head, req.body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// timedDo is do with the client-side latency from the first byte
// written to the last byte read, in milliseconds.
func (c *conn) timedDo(req request) (status int, body []byte, ms float64, err error) {
	begin := time.Now()
	status, body, err = c.do(req)
	return status, body, float64(time.Since(begin).Nanoseconds()) / 1e6, err
}

// client is the per-client state of a closed loop: its connection, the
// latencies of its successful ops and its failure count.
type client struct {
	id       int
	addr     string
	begin    time.Time // the window's start
	deadline time.Time // the window's end
	c        *conn
	lat      []sample
	done     int64 // ops attempted
	failed   int64
	reasons  []string

	refAddr   string    // the reference service
	ref       *conn     // the connection to it
	refLat    []float64 // latencies of its calls, ms
	refFailed int64
}

// observe records a successful op's latency.
func (cl *client) observe(ms float64) {
	cl.lat = append(cl.lat, sample{at: time.Since(cl.begin), ms: ms})
}

// untimed runs f outside the window: the window's start and end move
// by f's duration, so f counts toward neither throughput nor the
// window's length.
func (cl *client) untimed(f func() error) error {
	begin := time.Now()
	err := f()
	d := time.Since(begin)
	cl.begin, cl.deadline = cl.begin.Add(d), cl.deadline.Add(d)
	return err
}

// failOp records a failed op. A transport error drops the connection;
// the next op redials.
func (cl *client) failOp(transport bool, format string, args ...any) {
	cl.failed++
	if len(cl.reasons) < maxFailureNotes {
		cl.reasons = append(cl.reasons, fmt.Sprintf("client %d op %d: ", cl.id, cl.done)+fmt.Sprintf(format, args...))
	}
	if transport && cl.c != nil {
		cl.c.close()
		cl.c = nil
	}
}

// conn returns the client's connection, dialling it if needed.
func (cl *client) conn() (*conn, error) {
	if cl.c == nil {
		c, err := dial(cl.addr)
		if err != nil {
			return nil, err
		}
		cl.c = c
	}
	return cl.c, nil
}

// loadProcs is the benchmark's GOMAXPROCS while it generates load: the
// clients block on the server, and one thread keeps the load generator
// from contending with the server for the cores.
const loadProcs = 1

// closedLoop runs n clients until the window closes. Each client calls
// op for i = 0, 1, ... and starts no op once the window has closed; op
// charges its own latency and failures to the client. Before every
// ref.every-th op a client calls the reference service at refAddr,
// outside the window. It returns the clients and the longest time a
// client spent in the window up to its last completed op, untimed
// stretches left out.
func closedLoop(addr, refAddr string, ref refPlan, n int, window time.Duration, op func(cl *client, i int)) ([]*client, time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loadProcs))
	clients := make([]*client, n)
	begin := time.Now()
	for k := range clients {
		clients[k] = &client{id: k, addr: addr, refAddr: refAddr, begin: begin, deadline: begin.Add(window)}
	}
	elapsed := make([]time.Duration, n)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for i := 0; time.Now().Before(cl.deadline); i++ {
				if i%ref.every == 0 {
					cl.refCall(ref)
				}
				op(cl, i)
				cl.done++
			}
			elapsed[cl.id] = time.Since(cl.begin)
			if cl.c != nil {
				cl.c.close()
			}
			if cl.ref != nil {
				cl.ref.close()
			}
		}(clients[k])
	}
	wg.Wait()
	return clients, slices.Max(elapsed)
}

// tally charges the clients' ops to the report and records the
// throughput, latency and reference metrics.
func tally(rep *report, clients []*client, elapsed time.Duration) error {
	var lat [][]sample
	var refMs []float64
	var refFailed int64
	for _, cl := range clients {
		refMs = append(refMs, cl.refLat...)
		refFailed += cl.refFailed
		rep.Attempted += cl.done
		rep.Failed += cl.failed
		lat = append(lat, cl.lat)
		for _, r := range cl.reasons {
			if len(rep.Failures) < maxFailureNotes {
				rep.Failures = append(rep.Failures, r)
			}
		}
	}
	rep.Samples["window_ms"] = elapsed.Milliseconds()
	rep.Machine.Clients, rep.Machine.LoadGOMAXPROCS = len(clients), loadProcs
	rep.throughput(lat, latencyChunk)
	return refMetrics(rep, refMs, refFailed)
}

// replies keeps the distinct reply bodies seen per input. Repeats of one
// request are compared byte-for-byte as they arrive (a memcmp), so only
// distinct bodies are stored; every check runs after the window.
type replies struct {
	mu     sync.Mutex
	bodies map[int][][]byte // input -> distinct bodies, first seen first
	uses   map[int][]int64  // input -> ops that received each body
}

func newReplies() *replies {
	return &replies{bodies: map[int][][]byte{}, uses: map[int][]int64{}}
}

// reference stores input's expected reply ahead of the window, so
// every timed reply is compared against it.
func (r *replies) reference(input int, body []byte) {
	r.bodies[input] = [][]byte{bytes.Clone(body)}
	r.uses[input] = []int64{0}
}

// add records one reply for input and reports its index among the
// input's distinct bodies.
func (r *replies) add(input int, body []byte) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, b := range r.bodies[input] {
		if bytes.Equal(b, body) {
			r.uses[input][k]++
			return k
		}
	}
	r.bodies[input] = append(r.bodies[input], bytes.Clone(body))
	r.uses[input] = append(r.uses[input], 1)
	return len(r.bodies[input]) - 1
}
