package experiments

import (
	"context"
	"fmt"

	"repro/internal/fdm"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stage"
)

// fdmGroupKey keys the per-region FDM grouping: partition and XY-model
// lineage plus the line capacity. The region list is a pure function of
// the partition artifact, so it rides on partK.
func fdmGroupKey(partK, xyK stage.Key, capacity int) stage.Key {
	return stage.NewKey(StageFDMGroup).
		Key(partK).Key(xyK).Int(capacity).
		Done()
}

// runFDMGroupStage groups every region's qubits onto shared XY lines,
// fanning regions out over the worker pool and assembling in region
// order so the artifact is deterministic.
func runFDMGroupStage(ctx context.Context, store *stage.Store, key stage.Key, regions [][]int, capacity int, dist fdm.DistanceFunc, workers int) (*fdm.Grouping, error) {
	g, _, err := stage.Do(ctx, store, StageFDMGroup, key, parallel.Workers(workers), func(ctx context.Context) (*fdm.Grouping, error) {
		out := &fdm.Grouping{Capacity: capacity}
		results := make([]*fdm.Grouping, len(regions))
		err := parallel.ForEachCtx(ctx, workers, len(regions), func(ri int) error {
			var err error
			results[ri], err = fdm.Group(regions[ri], capacity, dist)
			if err != nil {
				return fmt.Errorf("region %d: %w", ri, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for ri := range regions {
			out.Groups = append(out.Groups, results[ri].Groups...)
		}
		return out, nil
	})
	return g, err
}

// allocateKey keys the two-level frequency allocation: it reads only
// the FDM grouping and the XY predictor, both already in the lineage.
func allocateKey(fdmK, xyK stage.Key) stage.Key {
	return stage.NewKey(StageAllocate).Key(fdmK).Key(xyK).Done()
}

// runAllocateStage runs the greedy two-level frequency allocation.
func runAllocateStage(ctx context.Context, store *stage.Store, key stage.Key, g *fdm.Grouping, xt fdm.CrosstalkFunc) (*fdm.FrequencyPlan, error) {
	plan, _, err := stage.Do(ctx, store, StageAllocate, key, 1, func(ctx context.Context) (*fdm.FrequencyPlan, error) {
		return fdm.Allocate(g, countPredictions(ctx, xt), fdm.DefaultAllocOptions())
	})
	return plan, err
}

// countPredictions wraps a stage's crosstalk predictor so each
// prediction for a distinct pair counts into crosstalk/predictions of
// the registry ctx carries. The count is deterministic: the stages ask
// for the same pairs at any worker count. With no registry xt comes
// back unwrapped, so an unobserved build pays nothing per call.
func countPredictions(ctx context.Context, xt func(i, j int) float64) func(i, j int) float64 {
	c := obs.FromContext(ctx).Counter("crosstalk/predictions")
	if c == nil {
		return xt
	}
	return func(i, j int) float64 {
		if i != j {
			c.Inc()
		}
		return xt(i, j)
	}
}

// annealKey keys the simulated-annealing refinement: the allocation it
// starts from plus the step budget and the anneal seed.
func annealKey(allocK stage.Key, steps int, seed int64) stage.Key {
	return stage.NewKey(StageAnneal).Key(allocK).Int(steps).Int64(seed).Done()
}

// runAnnealStage refines a frequency plan with simulated annealing.
// fdm.Anneal returns a fresh plan, so the cached input stays immutable.
func runAnnealStage(ctx context.Context, store *stage.Store, key stage.Key, plan *fdm.FrequencyPlan, g *fdm.Grouping, xt fdm.CrosstalkFunc, steps int, seed int64) (*fdm.FrequencyPlan, error) {
	refined, _, err := stage.Do(ctx, store, StageAnneal, key, 1, func(ctx context.Context) (*fdm.FrequencyPlan, error) {
		opts := fdm.DefaultAnnealOptions()
		opts.Steps = steps
		opts.Seed = seed
		out, _, _, err := fdm.Anneal(ctx, plan, g, countPredictions(ctx, xt), opts)
		return out, err
	})
	return refined, err
}
