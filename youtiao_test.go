package youtiao

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/xmon"
)

func designSquare(t *testing.T, w, h int) *DesignResult {
	t.Helper()
	d, err := Design(NewSquareChip(w, h), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDesignEndToEnd(t *testing.T) {
	d := designSquare(t, 4, 4)
	if d.Chip.NumQubits() != 16 {
		t.Fatalf("chip size %d", d.Chip.NumQubits())
	}
	// FDM lines cover every qubit exactly once.
	seen := map[int]bool{}
	for _, line := range d.FDMLines {
		if len(line.Qubits) != len(line.FreqGHz) {
			t.Fatal("line qubits/frequencies mismatch")
		}
		for i, q := range line.Qubits {
			if seen[q] {
				t.Errorf("qubit %d on two lines", q)
			}
			seen[q] = true
			if line.FreqGHz[i] < 4 || line.FreqGHz[i] > 7 {
				t.Errorf("q%d frequency %.3f outside band", q, line.FreqGHz[i])
			}
		}
	}
	if len(seen) != 16 {
		t.Errorf("FDM lines cover %d qubits", len(seen))
	}
	// TDM groups cover qubits + couplers exactly once.
	devices := map[string]bool{}
	for _, g := range d.TDMGroups {
		for _, name := range g.Devices {
			if devices[name] {
				t.Errorf("device %s in two groups", name)
			}
			devices[name] = true
		}
	}
	if want := 16 + d.Chip.NumCouplers(); len(devices) != want {
		t.Errorf("TDM covers %d devices, want %d", len(devices), want)
	}
}

func TestDesignWiringReduction(t *testing.T) {
	d := designSquare(t, 6, 6)
	if r := d.CoaxReduction(); r < 2.0 {
		t.Errorf("coax reduction %.2fx below 2", r)
	}
	if r := d.CostReduction(); r < 1.8 {
		t.Errorf("cost reduction %.2fx below 1.8", r)
	}
	if d.Youtiao.Architecture != "youtiao" || d.Baseline.Architecture != "google" {
		t.Error("architecture labels wrong")
	}
	if d.Youtiao.Interfaces >= d.Baseline.Interfaces {
		t.Error("no interface reduction")
	}
}

func TestDesignAccessors(t *testing.T) {
	d := designSquare(t, 4, 4)
	if _, ok := d.QubitFrequency(0); !ok {
		t.Error("q0 has no frequency")
	}
	if _, ok := d.QubitFrequency(99); ok {
		t.Error("unknown qubit has a frequency")
	}
	if d.PredictCrosstalk(0, 1) <= d.PredictCrosstalk(0, 15) {
		t.Error("predicted crosstalk should decay from neighbour to far corner")
	}
	d2, d4 := d.DemuxMix()
	if d2+d4 == 0 {
		t.Error("no DEMUXes in the design")
	}
	if d.CrosstalkWeights.WPhy == 0 && d.CrosstalkWeights.WTop == 0 {
		t.Error("degenerate crosstalk weights")
	}
}

func TestDesignReport(t *testing.T) {
	d := designSquare(t, 3, 3)
	rep := d.Report()
	for _, want := range []string{"YOUTIAO design", "FDM", "TDM", "wiring", "crosstalk model"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestScheduleBenchmarkViaFacade(t *testing.T) {
	d := designSquare(t, 4, 4)
	depth, latency, err := d.ScheduleBenchmark("QFT", 6)
	if err != nil {
		t.Fatal(err)
	}
	if depth <= 0 || latency <= 0 {
		t.Errorf("degenerate schedule: %d, %v", depth, latency)
	}
	if _, _, err := d.ScheduleBenchmark("bogus", 6); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNewChipConstructors(t *testing.T) {
	if c := NewHexagonChip(3, 4); c.NumQubits() != 12 {
		t.Error("hexagon constructor wrong")
	}
	if c := NewHeavySquareChip(2, 2); c.NumQubits() != 8 {
		t.Error("heavy-square constructor wrong")
	}
	if c := NewHeavyHexagonChip(2, 2); c.NumQubits() <= 4 {
		t.Error("heavy-hexagon constructor wrong")
	}
	if c := NewLowDensityChip(4, 2); c.NumQubits() != 8 {
		t.Error("low-density constructor wrong")
	}
	if _, err := NewChip("square", 20); err != nil {
		t.Error(err)
	}
	if _, err := NewChip("bogus", 20); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestDesignDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dev := xmon.NewDevice(chip.Square(4, 4), xmon.DefaultParams(), rng)
	d, err := DesignDevice(dev, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Chip != dev.Chip {
		t.Error("design not bound to the provided device")
	}
}

// DesignDevice validates its pipeline like Design does; a faulty
// device's design must pass with its dead qubits excluded.
func TestDesignDeviceWithFaultsValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev := xmon.NewDevice(chip.Square(6, 6), xmon.DefaultParams(), rng)
	d, err := DesignDevice(dev, Options{Seed: 5, Faults: UniformFaults(0.05), PartitionTargetSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	if d.Faults == nil || len(d.Faults.DeadQubits)+len(d.Faults.BrokenCouplers) == 0 {
		t.Fatalf("fault spec injected no faults: %+v", d.Faults)
	}
}

func TestDesignDeterministic(t *testing.T) {
	a := designSquare(t, 4, 4)
	b := designSquare(t, 4, 4)
	if a.Youtiao != b.Youtiao {
		t.Errorf("wiring differs across identical seeds: %+v vs %+v", a.Youtiao, b.Youtiao)
	}
}

func TestDefaultGateDurations(t *testing.T) {
	d := DefaultGateDurations()
	if d.TwoQubit <= d.OneQubit {
		t.Error("CZ should outlast 1q pulses")
	}
	if d.DemuxSwitch <= 0 {
		t.Error("missing DEMUX switch time")
	}
}

func TestDesignPartitionedChip(t *testing.T) {
	d, err := Design(NewSquareChip(8, 8), Options{Seed: 1, PartitionTargetSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regions == nil {
		t.Fatal("64-qubit chip at target 16 should be partitioned")
	}
	covered := 0
	for _, r := range d.Regions {
		covered += len(r)
	}
	if covered != 64 {
		t.Errorf("regions cover %d of 64 qubits", covered)
	}
	rep := d.Report()
	if !strings.Contains(rep, "partition") {
		t.Error("report omits the partition")
	}
}
