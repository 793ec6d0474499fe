package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// A fabricated device's chip shares its d_top matrix with every other
// clone of the prototype, so the store's size walk must not read it:
// another build may be filling it through a sibling clone at that
// moment (go test -race checks this), and the matrix belongs to the
// prototype, not to the artifact.
func TestDeviceSizeIgnoresSharedTopDistance(t *testing.T) {
	proto := chip.Square(6, 6)
	dev := xmon.NewDevice(proto.Clone(), xmon.DefaultParams(), rand.New(rand.NewSource(1)))
	before := stage.EstimateSize(dev)

	sibling := proto.Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sibling.TopDistance(0, 35)
	}()
	during := stage.EstimateSize(dev)
	<-done

	if after := stage.EstimateSize(dev); before != during || during != after {
		t.Errorf("device size moved with the shared d_top fill: %d, %d, %d bytes", before, during, after)
	}
}
