package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	youtiao "repro"
)

// TestDesignRequestOptions: every request field reaches the matching
// Options field through the one mapping the server and the library
// driver share. Bodies go through JSON so the pointer that tells an
// explicit theta 0 from an absent one is exercised too.
func TestDesignRequestOptions(t *testing.T) {
	cases := []struct {
		name, fields string
		want         youtiao.Options
	}{
		{"defaults", ``, youtiao.Options{}},
		{"seed", `,"seed":7`, youtiao.Options{Seed: 7}},
		{"theta", `,"theta":2.5`, youtiao.Options{Theta: 2.5, HasTheta: true}},
		{"explicit zero theta", `,"theta":0`, youtiao.Options{HasTheta: true}},
		{"fdmCapacity", `,"fdmCapacity":3`, youtiao.Options{FDMCapacity: 3}},
		{"annealSteps", `,"annealSteps":50`, youtiao.Options{AnnealSteps: 50}},
		{"defectRate", `,"defectRate":0.02`, youtiao.Options{Faults: youtiao.UniformFaults(0.02)}},
		{"retryBudget", `,"retryBudget":5`, youtiao.Options{RetryBudget: 5}},
		{"negative retryBudget", `,"retryBudget":-1`, youtiao.Options{RetryBudget: -1}},
		{"timeoutMs is no design option", `,"timeoutMs":900`, youtiao.Options{}},
	}
	var bodies strings.Builder
	for _, tc := range cases {
		body := `{"topology":"square","qubits":16` + tc.fields + `}`
		bodies.WriteString(body)
		var req DesignRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := req.Options(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Options() = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// A field added to DesignRequest must get a row here.
	rt := reflect.TypeOf(DesignRequest{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if !strings.Contains(bodies.String(), `"`+tag+`":`) {
			t.Errorf("field %s (json %q) has no mapping case", rt.Field(i).Name, tag)
		}
	}
}

func TestDesignRequestValidate(t *testing.T) {
	for _, tc := range []struct {
		qubits int
		ok     bool
	}{{-1, false}, {1, false}, {2, true}, {DefaultMaxQubits, true}, {DefaultMaxQubits + 1, false}} {
		err := DesignRequest{Topology: "square", Qubits: tc.qubits}.Validate(DefaultMaxQubits)
		if (err == nil) != tc.ok {
			t.Errorf("qubits %d: Validate = %v, want ok=%v", tc.qubits, err, tc.ok)
		}
	}
}
