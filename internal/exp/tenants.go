package exp

import (
	"context"
	"fmt"
	"io"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/vfabric"
	"mrts/internal/workload"
)

// TenantMixes are the tenant-population scenarios of the tenant sweep, in
// presentation order. Tenant 0 always runs the base workload, so a K=1
// sweep point is the single-application configuration of the Fig. 8
// pipeline under every mix.
//
//   - uniform: every tenant encodes a full-length sequence of its own
//     content (per-tenant seeds), equal weights.
//   - skewed: tenants 1..K-1 encode half-length sequences — they finish
//     early and the migrating hypervisor reclaims their containers for
//     the straggler.
//   - priority: uniform content with weight tiers 4/2/1/1/...; the
//     hypervisor hands the high-priority tenants proportionally more
//     fabric.
var TenantMixes = []string{"uniform", "skewed", "priority"}

// ValidMix reports whether name is a known tenant mix.
func ValidMix(name string) bool {
	for _, m := range TenantMixes {
		if name == m {
			return true
		}
	}
	return false
}

// TenantWorkload returns tenant i's workload options and weight under the
// mix. Tenant 0 is always the base options with weight per the mix tier.
func TenantWorkload(base workload.Options, i int, mix string) (workload.Options, int, error) {
	opts := base.Canonical()
	weight := 1
	switch mix {
	case "uniform":
	case "skewed":
		if i > 0 {
			opts.Frames = max(2, opts.Frames/2)
		}
	case "priority":
		switch i {
		case 0:
			weight = 4
		case 1:
			weight = 2
		}
	default:
		return opts, 0, fmt.Errorf("exp: unknown tenant mix %q", mix)
	}
	if i > 0 {
		opts.Seed = opts.Seed + uint64(i)
		opts.ProfileSeed = opts.Seed + 1000
	}
	return opts.Canonical(), weight, nil
}

// WorkloadProvider resolves workload options to a built workload — the
// seam through which the service's singleflight workload cache serves
// tenant sweeps. DirectWorkloads builds uncached.
type WorkloadProvider func(ctx context.Context, opts workload.Options) (*workload.Result, error)

// DirectWorkloads is the uncached WorkloadProvider the CLIs use.
func DirectWorkloads() WorkloadProvider {
	return func(_ context.Context, opts workload.Options) (*workload.Result, error) {
		return workload.Build(opts)
	}
}

// TenantsRow is one tenant count of the sweep: both arbitration modes on
// the same tenant set.
type TenantsRow struct {
	K int
	// Makespan is the completion time of the slowest tenant.
	StaticMakespan    arch.Cycles
	MigratingMakespan arch.Cycles
	// AggSpeedup is the aggregate speedup over all-software execution:
	// the summed RISC-mode times of every tenant divided by the summed
	// achieved times.
	StaticAggSpeedup    float64
	MigratingAggSpeedup float64
	// Fairness is Jain's index over the tenants' weight-normalised
	// speedups (1.0 = perfectly weighted-fair).
	StaticFairness    float64
	MigratingFairness float64
	// Repartitions / Migrations count the migrating hypervisor's epoch
	// activity (always zero for the static half).
	Repartitions int64
	Migrations   int64
}

// TenantsResult is the full tenant sweep.
type TenantsResult struct {
	Physical arch.Config
	Mix      string
	Rows     []TenantsRow
}

// Tenants sweeps the tenant count K = 1..maxK under the mix: for every K
// the same tenant set runs once under a static partition and once under
// the migrating hypervisor, every tenant an independent mRTS instance.
// The K=1 point is a single application owning the whole fabric — byte-
// identical to the Fig. 8 pipeline's mRTS run, pinned by tests.
func Tenants(ctx context.Context, wp WorkloadProvider, base workload.Options, phys arch.Config, maxK int, mix string) (TenantsResult, error) {
	res := TenantsResult{Physical: phys, Mix: mix}
	if maxK < 1 {
		return res, fmt.Errorf("exp: tenant sweep needs maxK >= 1, got %d", maxK)
	}
	if !ValidMix(mix) {
		return res, fmt.Errorf("exp: unknown tenant mix %q", mix)
	}

	// Build every tenant's workload and RISC-mode reference once, shared
	// read-only across the K rows.
	type tenantIn struct {
		w      *workload.Result
		weight int
		risc   arch.Cycles
	}
	ins := make([]tenantIn, maxK)
	for i := range ins {
		opts, weight, err := TenantWorkload(base, i, mix)
		if err != nil {
			return res, err
		}
		w, err := wp(ctx, opts)
		if err != nil {
			return res, fmt.Errorf("exp: tenant %d workload: %w", i, err)
		}
		ref, err := RunPoint(ctx, w, arch.Config{}, PolicyRISC)
		if err != nil {
			return res, fmt.Errorf("exp: tenant %d RISC reference: %w", i, err)
		}
		ins[i] = tenantIn{w: w, weight: weight, risc: ref.TotalCycles}
	}

	tenantsFor := func(k int) []vfabric.Tenant {
		out := make([]vfabric.Tenant, k)
		for i := 0; i < k; i++ {
			w := ins[i].w
			out[i] = vfabric.Tenant{
				App:    w.App,
				Trace:  w.Trace,
				Weight: ins[i].weight,
				Build: func(cfg arch.Config) (core.RuntimeSystem, error) {
					return NewPolicy(PolicyMRTS, cfg, w.App, w.Trace)
				},
			}
		}
		return out
	}

	rows, err := ParMap(ctx, maxK, func(ctx context.Context, i int) (TenantsRow, error) {
		k := i + 1
		if err := ctx.Err(); err != nil {
			return TenantsRow{}, context.Cause(ctx)
		}
		st, err := vfabric.Run(tenantsFor(k), vfabric.Options{Physical: phys})
		if err != nil {
			return TenantsRow{}, fmt.Errorf("exp: K=%d static: %w", k, err)
		}
		mg, err := vfabric.Run(tenantsFor(k), vfabric.Options{Physical: phys, Migrate: true})
		if err != nil {
			return TenantsRow{}, fmt.Errorf("exp: K=%d migrating: %w", k, err)
		}
		row := TenantsRow{
			K:                 k,
			StaticMakespan:    st.Makespan,
			MigratingMakespan: mg.Makespan,
			Repartitions:      mg.Repartitions,
			Migrations:        mg.Migrations,
		}
		risc := make([]arch.Cycles, k)
		weights := make([]int, k)
		for j := 0; j < k; j++ {
			risc[j] = ins[j].risc
			weights[j] = ins[j].weight
		}
		row.StaticAggSpeedup, row.StaticFairness = tenantScores(st, risc, weights)
		row.MigratingAggSpeedup, row.MigratingFairness = tenantScores(mg, risc, weights)
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// tenantScores folds a hypervisor report into the sweep's two quality
// columns: aggregate speedup over all-software execution (summed RISC
// times over summed achieved times) and Jain fairness of the
// weight-normalised per-tenant speedups.
func tenantScores(rep *vfabric.Report, risc []arch.Cycles, weights []int) (agg, fair float64) {
	var riscSum, gotSum float64
	xs := make([]float64, 0, len(rep.Tenants))
	for i, tr := range rep.Tenants {
		got := float64(tr.Report.TotalCycles)
		rc := float64(risc[i])
		riscSum += rc
		gotSum += got
		xs = append(xs, (rc/got)/float64(weights[i]))
	}
	if gotSum > 0 {
		agg = riscSum / gotSum
	}
	return agg, jain(xs)
}

// jain is Jain's fairness index: (Σx)² / (n·Σx²), 1.0 when all equal.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Render writes the sweep as a text table.
func (r TenantsResult) Render(w io.Writer) {
	fprintf(w, "Tenant sweep: static partition vs migrating hypervisor (mix=%s, fabric %d/%d)\n",
		r.Mix, r.Physical.NPRC, r.Physical.NCG)
	fprintf(w, "%-3s %14s %14s | %9s %9s | %9s %9s | %7s %7s\n",
		"K", "static Mcyc", "migrate Mcyc",
		"agg-spd", "agg-spd", "fairness", "fairness", "repart", "paths")
	fprintf(w, "%-3s %14s %14s | %9s %9s | %9s %9s | %7s %7s\n",
		"", "(makespan)", "(makespan)",
		"static", "migrate", "static", "migrate", "", "moved")
	for _, row := range r.Rows {
		fprintf(w, "%-3d %14.2f %14.2f | %9.2f %9.2f | %9.3f %9.3f | %7d %7d\n",
			row.K,
			row.StaticMakespan.MCycles(), row.MigratingMakespan.MCycles(),
			row.StaticAggSpeedup, row.MigratingAggSpeedup,
			row.StaticFairness, row.MigratingFairness,
			row.Repartitions, row.Migrations)
	}
}
