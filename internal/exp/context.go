package exp

import (
	"context"
	"runtime"

	"mrts/internal/selector"
)

// workersKey carries a ParMap worker-count override through a context.
type workersKey struct{}

// WithWorkers returns a context that caps the worker pool of every ParMap
// sweep under it at n (n <= 0 restores the GOMAXPROCS default). Figure
// harnesses thread their context into ParMap unchanged, so callers tune
// sweep parallelism without new parameters on every entry point. The
// worker count never affects results — ParMap writes by index — only
// wall-clock and peak memory.
func WithWorkers(ctx context.Context, n int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// workersFromContext returns the WithWorkers override, or 0 for default.
func workersFromContext(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	if n, ok := ctx.Value(workersKey{}).(int); ok && n > 0 {
		return n
	}
	return 0
}

// WithSelectionMemo returns ctx unchanged.
//
// Deprecated: it exists only because perfbench names it; ROADMAP item 2's
// benchmark change deletes it.
func WithSelectionMemo(ctx context.Context, _ *selector.Memo) context.Context {
	return ctx
}

// defaultWorkers resolves the effective ParMap worker count for n items:
// the WithWorkers override (GOMAXPROCS otherwise), clamped to n so a
// small sweep never spawns idle goroutines.
func defaultWorkers(ctx context.Context, n int) int {
	workers := workersFromContext(ctx)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}
