package service

import (
	"bytes"
	"net/http"
	"sync"
	"testing"

	"treesched/internal/scenario"
)

// TestWireFormattingSharesCacheKey: inline problems that differ only in
// formatting decode to the same problem, so through the HTTP handler
// they share one canonical cache key: every variant after the first is
// a result-cache hit with byte-identical reply bytes.
func TestWireFormattingSharesCacheKey(t *testing.T) {
	e, srv := newTestServer(t)
	bodies := []struct{ name, body string }{
		{"canonical", `{"algo":"arbitrary","problem":{"kind":"tree","num_vertices":5,` +
			`"tree_edges":[[[1,0],[2,1],[3,2],[4,3]],[[1,0],[2,0],[3,0],[4,0]]],` +
			`"demands":[{"id":0,"v":4,"profit":2,"height":1,"access":[0,1]},` +
			`{"id":1,"u":2,"v":3,"profit":3,"height":0.5,"access":[1]},` +
			`{"id":2,"u":1,"v":4,"profit":2,"height":1,"access":[0]}],` +
			`"capacities":[[0,2,1,3,1],[0,1,2,1,2]]}}`},
		{"whitespace", "{ \"algo\" : \"arbitrary\",\n\t\"problem\" : {\r\n \"kind\":\"tree\", \"num_vertices\": 5 ,\n" +
			"\"tree_edges\": [ [ [1, 0], [2, 1], [3, 2], [4, 3] ], [ [1, 0], [2, 0], [3, 0], [4, 0] ] ],\n" +
			"\"demands\": [\n  {\"id\": 0, \"v\": 4, \"profit\": 2, \"height\": 1, \"access\": [0, 1]},\n" +
			"  {\"id\": 1, \"u\": 2, \"v\": 3, \"profit\": 3, \"height\": 0.5, \"access\": [1]},\n" +
			"  {\"id\": 2, \"u\": 1, \"v\": 4, \"profit\": 2, \"height\": 1, \"access\": [0]}\n],\n" +
			"\"capacities\": [[0, 2, 1, 3, 1], [0, 1, 2, 1, 2]]\n}\n}\n"},
		{"key order", `{"problem":{"capacities":[[0,2,1,3,1],[0,1,2,1,2]],` +
			`"demands":[{"access":[0,1],"height":1,"profit":2,"v":4,"id":0},` +
			`{"access":[1],"height":0.5,"profit":3,"v":3,"u":2,"id":1},` +
			`{"access":[0],"height":1,"profit":2,"v":4,"u":1,"id":2}],` +
			`"tree_edges":[[[1,0],[2,1],[3,2],[4,3]],[[1,0],[2,0],[3,0],[4,0]]],` +
			`"num_vertices":5,"kind":"tree"},"algo":"arbitrary"}`},
		{"key case", `{"ALGO":"arbitrary","Problem":{"KIND":"tree","Num_Vertices":5,` +
			`"TREE_EDGES":[[[1,0],[2,1],[3,2],[4,3]],[[1,0],[2,0],[3,0],[4,0]]],` +
			`"Demands":[{"ID":0,"V":4,"Profit":2,"HEIGHT":1,"Access":[0,1]},` +
			`{"Id":1,"U":2,"v":3,"PROFIT":3,"Height":0.5,"ACCESS":[1]},` +
			`{"iD":2,"u":1,"V":4,"profiT":2,"heighT":1,"accesS":[0]}],` +
			`"CAPACITIES":[[0,2,1,3,1],[0,1,2,1,2]]}}`},
		{"float spellings", `{"algo":"arbitrary","problem":{"kind":"tree","num_vertices":5,` +
			`"tree_edges":[[[1,0],[2,1],[3,2],[4,3]],[[1,0],[2,0],[3,0],[4,0]]],` +
			`"demands":[{"id":0,"v":4,"profit":2.0,"height":1e0,"access":[0,1]},` +
			`{"id":1,"u":2,"v":3,"profit":3.000,"height":5e-1,"access":[1]},` +
			`{"id":2,"u":1,"v":4,"profit":2e0,"height":1.0,"access":[0]}],` +
			`"capacities":[[0.0,2.0,1E0,0.3e1,1],[0e5,1.0,20e-1,1,2e0]]}}`},
		{"tree edge order and orientation", `{"algo":"arbitrary","problem":{"kind":"tree","num_vertices":5,` +
			`"tree_edges":[[[3,4],[0,1],[2,3],[1,2]],[[0,4],[3,0],[0,2],[1,0]]],` +
			`"demands":[{"id":0,"v":4,"profit":2,"height":1,"access":[0,1]},` +
			`{"id":1,"u":2,"v":3,"profit":3,"height":0.5,"access":[1]},` +
			`{"id":2,"u":1,"v":4,"profit":2,"height":1,"access":[0]}],` +
			`"capacities":[[0,2,1,3,1],[0,1,2,1,2]]}}`},
	}
	var first []byte
	for i, b := range bodies {
		before := e.Metrics()
		status, reply := postJSON(t, srv.URL+"/solve", b.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b.name, status, reply)
		}
		after := e.Metrics()
		if i == 0 {
			first = reply
			if after.ResultMisses != before.ResultMisses+1 {
				t.Fatalf("%s: want one result-cache miss", b.name)
			}
			continue
		}
		if after.ResultHits != before.ResultHits+1 || after.ResultMisses != before.ResultMisses {
			t.Errorf("%s: result cache hits %d→%d, misses %d→%d; want exactly one more hit",
				b.name, before.ResultHits, after.ResultHits, before.ResultMisses, after.ResultMisses)
		}
		if !bytes.Equal(reply, first) {
			t.Errorf("%s: reply differs from the canonical body's:\n got  %s\n want %s", b.name, reply, first)
		}
	}
}

// TestHashProblemConcurrent: hashProblem's pooled buffers are never
// shared between goroutines, so concurrent hashes of different problems
// equal their serial hashes.
func TestHashProblemConcurrent(t *testing.T) {
	want := make([]string, 8)
	for i := range want {
		h, err := hashProblem(testProblem(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = h
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(want)
				if h, err := hashProblem(testProblem(int64(i))); err != nil || h != want[i] {
					t.Errorf("problem %d: hash %s, %v; want %s", i, h, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var hashSink string

// BenchmarkProblemHash is the canonical hash of a memo hit on the four
// presets an inline-hot client sends.
func BenchmarkProblemHash(b *testing.B) {
	for _, name := range []string{"capacitated-tree", "videowall-line", "caterpillar-backbone", "binary-fanout"} {
		s, _ := scenario.Get(name)
		p, err := s.Generate(scenario.Params{}, 11)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if hashSink, err = hashProblem(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
