package instance_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"treesched/internal/graph"
	"treesched/internal/instance"
	"treesched/internal/scenario"
)

// problemJSON is the wire form as encoding/json reads and writes it:
// the differential oracle for Problem.AppendWire and
// Problem.UnmarshalJSON, which must agree with it byte for byte and
// accept for accept.
type problemJSON struct {
	Kind         string            `json:"kind"`
	NumVertices  int               `json:"num_vertices,omitempty"`
	TreeEdges    [][][2]int        `json:"tree_edges,omitempty"`
	NumSlots     int               `json:"num_slots,omitempty"`
	NumResources int               `json:"num_resources,omitempty"`
	Demands      []instance.Demand `json:"demands"`
	Capacities   [][]float64       `json:"capacities,omitempty"`
}

// oracleMarshal encodes p through encoding/json.
func oracleMarshal(p *instance.Problem) ([]byte, error) {
	w := problemJSON{
		Kind:         p.Kind.String(),
		NumVertices:  p.NumVertices,
		NumSlots:     p.NumSlots,
		NumResources: p.NumResources,
		Demands:      p.Demands,
		Capacities:   p.Capacities,
	}
	for _, t := range p.Trees {
		w.TreeEdges = append(w.TreeEdges, t.Edges())
	}
	return json.Marshal(w)
}

// oracleUnmarshal decodes data through encoding/json, then builds the
// trees and validates as UnmarshalJSON does.
func oracleUnmarshal(data []byte) (*instance.Problem, error) {
	var w problemJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	p := &instance.Problem{}
	switch w.Kind {
	case "tree":
		p.Kind = instance.KindTree
	case "line":
		p.Kind = instance.KindLine
	default:
		return nil, fmt.Errorf("unknown kind %q", w.Kind)
	}
	p.NumVertices = w.NumVertices
	p.NumSlots = w.NumSlots
	p.NumResources = w.NumResources
	p.Demands = w.Demands
	p.Capacities = w.Capacities
	for _, edges := range w.TreeEdges {
		t, err := graph.NewTree(w.NumVertices, edges)
		if err != nil {
			return nil, err
		}
		p.Trees = append(p.Trees, t)
	}
	return p, p.Validate()
}

// checkWire decodes data with both the oracle and UnmarshalJSON and
// fails unless they agree: both reject, or both accept with deeply
// equal problems, equal tree edge lists and equal canonical bytes. It
// reports whether data was accepted.
func checkWire(t *testing.T, data []byte) bool {
	t.Helper()
	want, werr := oracleUnmarshal(data)
	var got instance.Problem
	gerr := got.UnmarshalJSON(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("accept/reject disagree on %q:\n oracle:  %v\n decoder: %v", data, werr, gerr)
	}
	if werr != nil {
		return false
	}
	if !reflect.DeepEqual(want, &got) {
		t.Fatalf("decoded problems differ on %q:\n oracle:  %+v\n decoder: %+v", data, want, &got)
	}
	for q := range want.Trees {
		if !reflect.DeepEqual(want.Trees[q].Edges(), got.Trees[q].Edges()) {
			t.Fatalf("tree %d edges differ on %q", q, data)
		}
	}
	wb, err := oracleMarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("canonical bytes differ on %q:\n oracle: %s\n writer: %s", data, wb, gb)
	}
	return true
}

// presetProblems generates every scenario preset; small shrinks the
// Scale presets to a few dozen demands.
func presetProblems(tb testing.TB, small bool) map[string]*instance.Problem {
	tb.Helper()
	out := map[string]*instance.Problem{}
	for _, s := range scenario.All() {
		var params scenario.Params
		if small && s.Scale {
			params = scenario.Params{Demands: 30, Size: 16, Networks: 3}
		}
		p, err := s.Generate(params, 11)
		if err != nil {
			tb.Fatal(err)
		}
		out[s.Name] = p
	}
	return out
}

// wireQuirks are inputs on which encoding/json's behaviour is easy to
// get wrong, each with whether it must be accepted.
var wireQuirks = []struct {
	name string
	body string
	ok   bool
}{
	{"plain", `{"kind":"tree","num_vertices":3,"tree_edges":[[[1,0],[2,1]]],"demands":[{"id":0,"u":0,"v":2,"profit":2,"height":1,"access":[0]}]}`, true},
	{"whitespace", " \t\n{ \"kind\" : \"line\" ,\r\n\"num_slots\":4 , \"num_resources\" :1,\"demands\":[ {\"id\":0,\"release\":0,\"deadline\":3,\"proctime\":2,\"profit\":1,\"height\":0.5,\"access\":[ 0 ]} ] } \n", true},
	{"key case", `{"KIND":"line","Num_Slots":4,"NUM_resources":1,"Demands":[{"ID":0,"Release":1,"DEADLINE":3,"ProcTime":2,"PROFIT":1,"Height":1,"ACCESS":[0]}]}`, true},
	{"unicode fold keys", `{"\u212aind":"line","num_ſlots":4,"num_resources":1,"demandſ":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"acceſſ":[0]}]}`, true},
	{"escaped strings", `{"\u006bind":"\u006c\u0069ne","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0]}],"x\ud83d\ude00\n":"\ud800\"\\\/\b\f\r\t"}`, true},
	{"kind is case-sensitive", `{"kind":"LINE","num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"unknown keys skipped", `{"kind":"line","x":{"a":[1,-2.5e3,{"b":null}],"c":true,"d":false,"e":""},"num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0],"extra":[[]]}]}`, true},
	{"unknown value bad syntax", `{"kind":"line","x":[1,,2],"num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"unknown value bad number", `{"kind":"line","x":01,"num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"unknown value bad escape", `{"kind":"line","x":"\q","num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"unknown value control char", "{\"kind\":\"line\",\"x\":\"a\tb\",\"num_slots\":4,\"num_resources\":1,\"demands\":[]}", false},
	{"null scalars keep values", `{"kind":"line","kind":null,"num_slots":4,"num_slots":null,"num_resources":1,"demands":[{"id":0,"deadline":3,"deadline":null,"proctime":2,"profit":1,"height":1,"height":null,"access":[0]}]}`, true},
	{"null demands", `{"kind":"line","num_slots":4,"num_resources":1,"demands":null}`, true},
	{"empty demands", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[]}`, true},
	{"null access", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":null}]}`, false},
	{"null demand element", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[null]}`, false},
	{"null capacities", `{"kind":"line","num_slots":2,"num_resources":1,"demands":[],"capacities":null}`, true},
	{"null capacity row", `{"kind":"line","num_slots":2,"num_resources":1,"demands":[],"capacities":[null]}`, false},
	{"null edge", `{"kind":"tree","num_vertices":2,"tree_edges":[[null]],"demands":[]}`, false},
	{"null edge element", `{"kind":"tree","num_vertices":2,"tree_edges":[[[1,null]]],"demands":[]}`, true},
	{"duplicate key last wins", `{"kind":"tree","kind":"line","num_slots":9,"num_slots":4,"num_resources":1,"demands":[]}`, true},
	{"duplicate demands merge", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"release":1,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0]},{"id":1}],"demands":[{"profit":3}]}`, true},
	{"duplicate demands reach stale element", `{"kind":"line","num_slots":4,"num_resources":2,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0]},{"id":1,"deadline":3,"proctime":1,"profit":2,"height":1,"access":[1,0]}],"demands":[{"profit":4}],"demands":[{},null]}`, true},
	{"duplicate demands null element keeps old", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0]}],"demands":[null]}`, true},
	{"duplicate empty demands", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0]}],"demands":[],"demands":[{"id":0}]}`, false},
	{"duplicate access shrinks", `{"kind":"line","num_slots":4,"num_resources":2,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0,1],"access":[1]}]}`, true},
	{"duplicate tree edges", `{"kind":"tree","num_vertices":3,"tree_edges":[[[1,0],[2,0]],[[1,0],[2,1]]],"tree_edges":[[[2,1],null]],"demands":[]}`, true},
	{"edge extra elements", `{"kind":"tree","num_vertices":3,"tree_edges":[[[1,0,7],[2,1,"x",{},[null]]]],"demands":[]}`, true},
	{"edge missing elements", `{"kind":"tree","num_vertices":3,"tree_edges":[[[1],[0,2]]],"demands":[]}`, true},
	{"edge empty", `{"kind":"tree","num_vertices":2,"tree_edges":[[[]]],"demands":[]}`, false},
	{"edge bad element type", `{"kind":"tree","num_vertices":2,"tree_edges":[[["1",0]]],"demands":[]}`, false},
	{"edge orientation and order", `{"kind":"tree","num_vertices":4,"tree_edges":[[[0,3],[2,1],[1,0]]],"demands":[]}`, true},
	{"float in int field", `{"kind":"line","num_slots":4.0,"num_resources":1,"demands":[]}`, false},
	{"exponent in int field", `{"kind":"line","num_slots":1e2,"num_resources":1,"demands":[]}`, false},
	{"int overflow", `{"kind":"line","num_slots":9223372036854775808,"num_resources":1,"demands":[]}`, false},
	{"negative zero int", `{"kind":"line","num_slots":-0,"num_resources":1,"demands":[]}`, false},
	{"float forms", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":2.0,"height":1e0,"access":[0]},{"id":1,"deadline":3,"proctime":2,"profit":0.2E+1,"height":1E-0,"access":[0]}]}`, true},
	{"tiny and huge floats", `{"kind":"line","num_slots":2,"num_resources":1,"demands":[{"id":0,"deadline":1,"proctime":1,"profit":1e300,"height":1e-400,"access":[0]}],"capacities":[[1e-7,123456789012345678901234]]}`, false},
	{"float formatting", `{"kind":"line","num_slots":5,"num_resources":1,"demands":[],"capacities":[[1e-7,1.5e21,0.000001,1e20,0.1]]}`, true},
	{"float overflow", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1e400,"height":1,"access":[0]}]}`, false},
	{"string in float field", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":"1","height":1,"access":[0]}]}`, false},
	{"bool in int field", `{"kind":"line","num_slots":true,"num_resources":1,"demands":[]}`, false},
	{"object for slice", `{"kind":"line","num_slots":4,"num_resources":1,"demands":{}}`, false},
	{"number kind", `{"kind":1,"num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"missing kind", `{"num_slots":4,"num_resources":1,"demands":[]}`, false},
	{"trailing whitespace", "{\"kind\":\"line\",\"num_slots\":4,\"num_resources\":1,\"demands\":[]}\r\n\t ", true},
	{"trailing data", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[]} {}`, false},
	{"trailing comma", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[],}`, false},
	{"trailing array comma", `{"kind":"line","num_slots":4,"num_resources":2,"demands":[{"id":0,"deadline":3,"proctime":2,"profit":1,"height":1,"access":[0,]}]}`, false},
	{"missing colon", `{"kind" "line"}`, false},
	{"truncated", `{"kind":"line","num_slots":4`, false},
	{"truncated string", `{"kind":"li`, false},
	{"top-level null", `null`, false},
	{"top-level array", `[]`, false},
	{"empty input", ``, false},
	{"deep unknown value", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"too deep unknown value", `{"kind":"line","num_slots":4,"num_resources":1,"demands":[],"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"invalid utf-8 key", "{\"kind\":\"line\",\"num_slots\":4,\"num_resources\":1,\"demands\":[],\"\xffkind\":\"tree\"}", true},
	{"invalid utf-8 kind", "{\"kind\":\"line\xff\",\"num_slots\":4,\"num_resources\":1,\"demands\":[]}", false},
}

// TestProblemWireQuirks: on every quirk, UnmarshalJSON accepts exactly
// when encoding/json does and yields the same problem and bytes.
func TestProblemWireQuirks(t *testing.T) {
	for _, c := range wireQuirks {
		t.Run(c.name, func(t *testing.T) {
			if got := checkWire(t, []byte(c.body)); got != c.ok {
				t.Fatalf("accepted = %v, want %v", got, c.ok)
			}
		})
	}
}

// TestAppendWireMatchesOracle pins AppendWire (and MarshalJSON through
// json.Marshal) to encoding/json's bytes for every scenario preset at
// its default size, Scale presets included, and for the capacitated
// fixtures; decoding those bytes must agree with the oracle too.
func TestAppendWireMatchesOracle(t *testing.T) {
	problems := presetProblems(t, false)
	problems["capTreeProblem"] = capTreeProblem(t)
	problems["capLineProblem"] = capLineProblem()
	for name, p := range problems {
		want, err := oracleMarshal(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := p.AppendWire(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendWire differs from encoding/json (%d vs %d bytes)", name, len(got), len(want))
		}
		viaMarshal, err := json.Marshal(p)
		if err != nil || !bytes.Equal(viaMarshal, want) {
			t.Fatalf("%s: json.Marshal differs from encoding/json: %v", name, err)
		}
		if !checkWire(t, got) {
			t.Fatalf("%s: canonical bytes rejected", name)
		}
	}
}

// TestAppendWireRejectsNonFinite: like json.Marshal, AppendWire has no
// form for NaN or ±Inf.
func TestAppendWireRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := capLineProblem()
		p.Capacities[0][1] = bad
		if _, err := p.AppendWire(nil); err == nil {
			t.Fatalf("capacity %g encoded", bad)
		}
		if _, err := oracleMarshal(p); err == nil {
			t.Fatalf("oracle encoded capacity %g", bad)
		}
		p = capLineProblem()
		p.Demands[1].Profit = bad
		if _, err := p.AppendWire(nil); err == nil {
			t.Fatalf("profit %g encoded", bad)
		}
	}
}

// FuzzProblemWire: the schema-specific decoder and writer agree with
// encoding/json on every input (see checkWire).
func FuzzProblemWire(f *testing.F) {
	for _, p := range presetProblems(f, true) {
		data, err := p.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range wireQuirks {
		if len(c.body) < 4096 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data)
	})
}

var decodeSink instance.Problem

// BenchmarkProblemDecode decodes the wire form of the four presets an
// inline-hot client sends, trees and validation included.
func BenchmarkProblemDecode(b *testing.B) {
	for _, name := range []string{"capacitated-tree", "videowall-line", "caterpillar-backbone", "binary-fanout"} {
		s, _ := scenario.Get(name)
		p, err := s.Generate(scenario.Params{}, 11)
		if err != nil {
			b.Fatal(err)
		}
		data, err := p.AppendWire(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if err := decodeSink.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
