// Package sweep holds the deterministic fan-out primitives: contiguous
// shards of an index range for the synthesis pipeline (shard.go), and
// independent seeded simulation runs (sweep.go), both across a bounded
// worker pool and both under one discipline. Every unit of work is
// isolated (a run gets its own Network and its own telemetry.Registry),
// workers write only their own result slot, and aggregation — result
// order, error selection, telemetry merging — happens in index order on
// the caller's goroutine. par=1 and par=N are therefore observably
// identical, and par=1 runs inline with zero scheduling overhead (the
// serial path, kept exercised by the -race determinism gate).
package sweep

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/telemetry"
)

// Seeds returns the n consecutive seeds starting at first — the standard
// sweep domain (seeds 1..n for first=1).
func Seeds(first int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = first + int64(i)
	}
	return out
}

// PanicError is a run body's panic converted to a seed-attributed
// error. A panicking seed must not kill the whole sweep — on the
// worker-pool path it would take the process down with a goroutine
// backtrace that names no seed; here it costs one result slot and
// carries the seed, the panic value and the stack of the panicking
// goroutine, and the other seeds complete normally.
type PanicError struct {
	Seed  int64
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: seed %d panicked: %v", e.Seed, e.Value)
}

// guard runs fn(i, seed) converting a panic into a *PanicError.
func guard[T any](i int, seed int64, fn func(i int, seed int64) (T, error)) (result T, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Seed: seed, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, seed)
}

// run is the shared worker pool: fn fills slot i for seeds[i]. It
// returns the per-seed error slots so callers choose their own error
// policy (Run reports the first in seed order, RunMerged also counts).
// Panics in fn are recovered into *PanicError slots on both paths, so
// the serial and parallel failure behavior is identical.
func run[T any](seeds []int64, par int, fn func(i int, seed int64) (T, error)) ([]T, []error) {
	results := make([]T, len(seeds))
	errs := make([]error, len(seeds))
	workers := Workers(par, len(seeds))
	if workers <= 1 {
		for i, seed := range seeds {
			results[i], errs[i] = guard(i, seed, fn)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = guard(i, seeds[i], fn)
				}
			}()
		}
		for i := range seeds {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	return results, errs
}

// firstError returns the first non-nil error in seed order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run executes fn once per seed on min(par, len(seeds)) workers (par <= 0
// means GOMAXPROCS) and returns the results in seed order. Every seed
// runs regardless of other seeds' failures; the returned error is the
// first failure in seed order (deterministic — never "whichever worker
// lost the race"), with the corresponding zero-valued results left in
// place.
func Run[T any](seeds []int64, par int, fn func(seed int64) (T, error)) ([]T, error) {
	results, errs := run(seeds, par, func(_ int, seed int64) (T, error) { return fn(seed) })
	return results, firstError(errs)
}

// RunMerged is Run for instrumented sweeps: each run receives a private
// telemetry.Registry (nil when reg is nil, preserving the uninstrumented
// fast path), and after every run completes the private registries merge
// into reg in seed order. Counters and histograms are commutative, so the
// merged aggregate is identical for par=1 and par=N.
//
// Unlike Run, a failure does not hide later ones: when any seed fails,
// the returned error carries the total failed-seed count alongside the
// first failure in seed order (unwrappable via errors.Is/As), and the
// aggregate registry (when non-nil) gains "sweep.seeds" and
// "sweep.seed_failures" counters — so a long churn soak that loses 30
// seeds reads as 30, not as 1.
func RunMerged[T any](seeds []int64, par int, reg *telemetry.Registry,
	fn func(seed int64, reg *telemetry.Registry) (T, error)) ([]T, error) {
	regs := make([]*telemetry.Registry, len(seeds))
	if reg != nil {
		for i := range regs {
			regs[i] = telemetry.NewRegistry()
		}
	}
	results, errs := run(seeds, par, func(i int, seed int64) (T, error) {
		return fn(seed, regs[i])
	})
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if reg != nil {
		for _, r := range regs {
			reg.Merge(r.Snapshot())
		}
		reg.Counter("sweep.seeds").Add(int64(len(seeds)))
		reg.Counter("sweep.seed_failures").Add(int64(failed))
	}
	err := firstError(errs)
	if failed > 1 {
		err = fmt.Errorf("sweep: %d of %d seeds failed; first: %w", failed, len(seeds), err)
	}
	return results, err
}
