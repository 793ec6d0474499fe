package experiments

import (
	"context"

	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// characterization is the artifact of one characterize stage: a fitted
// crosstalk model, its predictor bound to the measured device's chip
// and the campaign's fault accounting. The predictor is cached with the
// model because binding it (crosstalk.Model.On) tabulates the chip's
// distances and every qubit pair's prediction: shared, that work runs
// once per fit instead of on every warm redesign.
type characterization struct {
	Model *crosstalk.Model
	Pred  *crosstalk.Predictor
	Stats faults.CampaignStats
}

// characterizeKey keys one channel's measure-and-fit: device and fault
// lineage, the seed streams, and exactly the normalized-options subset
// the stage reads (sample cap, retry budget and the full fit search
// space). Workers is deliberately absent — results are bit-identical
// for every worker count, so a cached fit is valid at any parallelism.
func characterizeKey(name string, devKey, faultsKey stage.Key, opts Options, designSeed int64, measureStream, subStream uint64) stage.Key {
	return stage.NewKey(name).
		Key(devKey).Key(faultsKey).
		Int64(designSeed).Uint64(measureStream).Uint64(subStream).
		Int(opts.MaxFitSamples).Int(opts.RetryBudget).
		Floats(opts.Fit.WeightGrid).Int(opts.Fit.Folds).
		Int(opts.Fit.Forest.NumTrees).Int64(opts.Fit.Forest.Seed).
		Int(opts.Fit.Forest.Tree.MaxDepth).
		Int(opts.Fit.Forest.Tree.MinLeafSize).
		Int(opts.Fit.Forest.Tree.MaxFeatures).
		Float64(opts.Fit.TrimOutlierFraction).
		Done()
}

// runCharacterize measures one crosstalk channel and fits its model, or
// recalls the artifact when the key is cached.
func runCharacterize(ctx context.Context, store *stage.Store, name string, key stage.Key, dev *xmon.Device, kind xmon.CrosstalkKind, opts Options, designSeed int64, measureStream, subStream uint64, plan *faults.Plan) (*characterization, error) {
	ch, _, err := stage.Do(ctx, store, name, key, parallel.Workers(opts.Workers), func(ctx context.Context) (*characterization, error) {
		m, stats, err := fitModel(ctx, dev.Chip, dev, kind, opts, designSeed, measureStream, subStream, plan)
		if err != nil {
			return nil, err
		}
		return &characterization{Model: m, Pred: m.On(dev.Chip), Stats: stats}, nil
	})
	return ch, err
}

// fitModel measures one crosstalk channel and fits the characterization
// model, subsampling large campaigns. The measurement campaign and the
// subsample draw run on their own streams of the design seed. With a
// nil (or disabled) fault plan the campaign is the historical
// MeasureSeeded path, bit for bit; otherwise dropouts are retried
// within opts.RetryBudget and surviving samples may carry injected
// outliers (trimmed by the fit when configured).
func fitModel(ctx context.Context, c *chip.Chip, dev *xmon.Device, kind xmon.CrosstalkKind, opts Options, designSeed int64, measureStream, subStream uint64, plan *faults.Plan) (*crosstalk.Model, faults.CampaignStats, error) {
	samples, stats, err := faults.Measure(ctx, dev, kind, 0.05, parallel.TaskSeed(designSeed, measureStream), opts.Workers, opts.RetryBudget, plan)
	if err != nil {
		return nil, stats, err
	}
	if opts.MaxFitSamples > 0 && len(samples) > opts.MaxFitSamples {
		rng := parallel.TaskRand(designSeed, subStream)
		perm := rng.Perm(len(samples))[:opts.MaxFitSamples]
		sub := make([]xmon.Sample, len(perm))
		for i, pi := range perm {
			sub[i] = samples[pi]
		}
		samples = sub
	}
	m, err := crosstalk.FitCtx(ctx, c, samples, opts.Fit)
	return m, stats, err
}
