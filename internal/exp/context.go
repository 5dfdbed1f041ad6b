package exp

import (
	"context"
	"runtime"

	"mrts/internal/core"
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

// memoKey carries a shared selection memo through a context.
type memoKey struct{}

// WithSelectionMemo returns a context under which every greedy-selector
// policy built by the figure harnesses (RunPointObserved, the tenant
// sweep's per-tenant instances) gets memo attached via
// (*core.MRTS).SetSharedMemo. One memo may serve many workloads, policies
// and sweep points concurrently: its keys fingerprint the selector's
// entire input surface including block object identity, so entries never
// collide across workloads, and a hit replays exactly the Result the
// selector would compute — simulated timelines stay byte-identical with
// or without the memo. This is the cross-point reuse layer of the batch
// sweep engine (internal/batch).
func WithSelectionMemo(ctx context.Context, memo *selector.Memo) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, memoKey{}, memo)
}

// attachMemo hands the context's shared selection memo (if any) to the
// runtime system (if it accepts one). Policies with a custom selection
// algorithm — the online-optimal yardstick — refuse it themselves.
func attachMemo(ctx context.Context, rts core.RuntimeSystem) {
	if ctx == nil {
		return
	}
	memo, ok := ctx.Value(memoKey{}).(*selector.Memo)
	if !ok || memo == nil {
		return
	}
	if m, ok := rts.(interface {
		SetSharedMemo(*selector.Memo) bool
	}); ok {
		m.SetSharedMemo(memo)
	}
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
