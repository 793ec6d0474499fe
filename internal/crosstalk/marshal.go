package crosstalk

import (
	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

// AppendBinary encodes a fitted model: kind, selected weights, CV
// error and the trained forest. The step function compiled from the
// forest is not persisted: a decoded model rebuilds it on first
// prediction, with identical values.
func (m *Model) AppendBinary(e *binpack.Enc) {
	e.Int(int(m.Kind))
	e.F64(m.Weights.WPhy)
	e.F64(m.Weights.WTop)
	e.F64(m.CVError)
	if m.forest == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	m.forest.AppendBinary(e)
}

// DecodeBinary rebuilds a model encoded by AppendBinary.
func DecodeBinary(d *binpack.Dec) (*Model, error) {
	m := &Model{Kind: xmon.CrosstalkKind(d.Int())}
	m.Weights.WPhy = d.F64()
	m.Weights.WTop = d.F64()
	m.CVError = d.F64()
	hasForest := d.Bool()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if hasForest {
		f, err := mlfit.DecodeBinary(d)
		if err != nil {
			return nil, err
		}
		m.forest = f
	}
	return m, nil
}

// Chip returns the chip this predictor is bound to.
func (p *Predictor) Chip() *chip.Chip { return p.chip }
