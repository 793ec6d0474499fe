package main

import (
	"bytes"
	"encoding/json"
	"testing"

	youtiao "repro"
	"repro/internal/serve"
)

func TestSplitResponseFindsDesignAndElapsed(t *testing.T) {
	snap := &youtiao.DesignSnapshot{}
	snap.Chip.Name = "square-16"
	snap.Chip.Qubits = 16
	snap.FDMLines = []youtiao.FDMLine{{Qubits: []int{0, 1}, FreqGHz: []float64{5.1, 5.2}}}
	body, err := json.Marshal(serve.DesignResponse{
		Design:    snap,
		Manifest:  &youtiao.Manifest{Schema: 1, Seed: 3},
		Stages:    &youtiao.StageReport{Hits: 2},
		ElapsedMs: 1.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	design, elapsed, err := splitResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(design, want) || elapsed != 1.25 {
		t.Errorf("got design %s elapsed %g, want %s 1.25", design, elapsed, want)
	}

	for _, bad := range []string{
		`{"manifest":{}}`,
		`{"elapsedMs":1.25,"design":` + string(want) + `,"manifest":{}}`,
		`{"design":{},"manifest":{},"elapsedMs":"x"}`,
	} {
		if _, _, err := splitResponse([]byte(bad)); err == nil {
			t.Errorf("body %.40s... was accepted", bad)
		}
	}
}
