package instance

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestDemandSchemaMatchesTags: Demand's wire schema is written twice —
// in its json tags, which encoding/json uses for session events, and in
// demandKeys, appendDemand and wireDecoder.demand. A field added to one
// but not the others would drop out of AppendWire, and problems that
// differ only in it would share a cache key. This pins the hand-written
// codec to the tags: same keys in the same order, and, field by field,
// the same bytes as json.Marshal (so the same omitempty set) and a
// lossless decode.
func TestDemandSchemaMatchesTags(t *testing.T) {
	typ := reflect.TypeOf(Demand{})
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			t.Fatalf("Demand.%s has no json key; the wire codec would not carry it", f.Name)
		}
		keys = append(keys, name)
	}
	if !slices.Equal(keys, demandKeys) {
		t.Fatalf("Demand json keys %q, demandKeys %q", keys, demandKeys)
	}

	check := func(what string, d Demand) {
		t.Helper()
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendDemand(nil, &d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: appendDemand %s, json.Marshal %s", what, got, want)
		}
		var back Demand
		dec := wireDecoder{data: got}
		if err := dec.demand(&back); err != nil {
			t.Fatalf("%s: decode %s: %v", what, got, err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Errorf("%s: decoded %+v from %s, want %+v", what, back, got, d)
		}
	}
	check("zero demand", Demand{})
	var all Demand
	for i := 0; i < typ.NumField(); i++ {
		var one Demand
		setNonZero(t, reflect.ValueOf(&one).Elem().Field(i))
		setNonZero(t, reflect.ValueOf(&all).Elem().Field(i))
		check("only "+typ.Field(i).Name+" set", one)
	}
	check("every field set", all)
}

// setNonZero stores a non-zero value of v's kind in v.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Int {
			t.Fatalf("no test value for %v", v.Type())
		}
		v.Set(reflect.ValueOf([]int{2, 0}))
	default:
		t.Fatalf("no test value for %v; extend setNonZero and the wire codec", v.Type())
	}
}
