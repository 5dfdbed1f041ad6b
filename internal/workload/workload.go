// Package workload produces the traces the experiments replay: it runs the
// simplified H.264 encoder (internal/h264) over deterministic synthetic
// video (internal/video) and converts the per-frame, per-functional-block
// kernel invocation counts into a trace (internal/trace) against the ISE
// library's application model (internal/iselib). The content dependence of
// the counts — moving objects, noise, scene cuts — is what drives the
// paper's run-time effects.
package workload

import (
	"fmt"
	"sync"

	"mrts/internal/arch"
	"mrts/internal/h264"
	"mrts/internal/ise"
	"mrts/internal/iselib"
	"mrts/internal/trace"
	"mrts/internal/video"
)

// OracleProfileSeed is a ProfileSeed sentinel requesting an oracle profile
// (profiling on the deployment content) without having to know the
// effective deployment seed. Setting ProfileSeed equal to Seed does the
// same when Seed is explicit, but Seed's own zero-default (0 means 1)
// makes "ProfileSeed: 0, Seed: 0" mean a *separate* profiling sequence —
// this sentinel is the unambiguous spelling.
const OracleProfileSeed = ^uint64(0)

// Options configure a workload build.
//
// Zero-value convention: a zero field means "use the documented default",
// never "literally zero". Fields for which a real zero is meaningful
// (h264.Config.QP, SkipThreshold, SearchRange; PhasedOptions.Divergence)
// accept a negative value as the explicit-zero spelling, and ProfileSeed
// has the OracleProfileSeed sentinel. Canonical resolves every sentinel
// to its effective value.
type Options struct {
	// Width, Height are the frame dimensions (default QCIF, 176x144,
	// which puts the functional-block windows in the paper's regime of a
	// few multiples of the FG reconfiguration time).
	Width, Height int
	// Frames is the sequence length (default 16, as in Fig. 2).
	Frames int
	// Seed drives the synthetic video generator (default 1; 0 is not a
	// usable seed — it selects the default).
	Seed uint64
	// ProfileSeed drives the separate profiling sequence from which the
	// static trigger-instruction values are derived — the binary's
	// forecasts come from an offline profiling run on different content
	// than the deployment input (paper Section 4). Default Seed + 1000.
	// Set ProfileSeed == Seed (or the OracleProfileSeed sentinel) to
	// profile on the deployment content (oracle forecasts).
	ProfileSeed uint64
	// Video tunes the synthetic content.
	Video video.Options
	// Encoder tunes the encoder.
	Encoder h264.Config
	// Phased, when non-nil, selects the dynamic control-flow generator
	// (Markov regime walks over a synthetic application) instead of the
	// encoder pipeline. Width/Height/Frames/Video/Encoder are unused
	// then; Seed drives both the structure and the deployment walk, and
	// ProfileSeed the profiling walk.
	Phased *PhasedOptions `json:"Phased,omitempty"`
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch o.ProfileSeed {
	case OracleProfileSeed:
		o.ProfileSeed = o.Seed
	case 0:
		o.ProfileSeed = o.Seed + 1000
	}
	if o.Phased != nil {
		// The encoder pipeline is not involved; leave its knobs alone so
		// the canonical form does not invent irrelevant detail.
		return
	}
	if o.Width == 0 {
		o.Width = 176
	}
	if o.Height == 0 {
		o.Height = 144
	}
	if o.Frames == 0 {
		o.Frames = 16
	}
	// Experiment defaults: a moderate QP keeps enough coded blocks for
	// the entropy-coding and reconstruction kernels, and the skip
	// threshold makes motion-estimation effort content-dependent.
	if o.Encoder.QP == 0 {
		o.Encoder.QP = 24
	}
	if o.Encoder.SkipThreshold == 0 {
		o.Encoder.SkipThreshold = 1400
	}
}

// Canonical returns the options with every default applied and every
// sentinel resolved. Two Options values that build the same workload have
// the same Canonical form, which is what content-addressed caches (the
// mrts-serve result and workload caches) hash instead of the raw user
// input; Canonical is idempotent, so re-canonicalising a cached key is
// harmless.
func (o Options) Canonical() Options {
	o.defaults()
	if o.Phased != nil {
		// Only the fields the phased generator reads participate in the
		// identity; the pointer is deep-copied so the caller's options
		// are never aliased by the cache key.
		p := o.Phased.Canonical()
		return Options{Seed: o.Seed, ProfileSeed: o.ProfileSeed, Phased: &p}
	}
	o.Video = o.Video.Canonical()
	o.Encoder = o.Encoder.Canonical()
	return o
}

// Result bundles everything a workload build produces.
type Result struct {
	App    *ise.Application
	Trace  *trace.Trace
	Frames []*h264.FrameStats
}

// Build runs the encoder and assembles the trace. The static trigger
// values (tr.Profile) are derived from a RISC-mode profiling pass over a
// *separate* profiling sequence (ProfileSeed), as in the paper: the
// programmer embeds numbers from offline profiling, the MPU corrects them
// at run time when the deployment content behaves differently.
func Build(opts Options) (*Result, error) {
	opts.defaults()
	if opts.Phased != nil {
		return buildPhased(opts)
	}
	app, err := iselib.NewApplication()
	if err != nil {
		return nil, err
	}
	// The profiling sequence is independent of the deployment sequence,
	// so it encodes on a second goroutine meanwhile; both only read app.
	var (
		prof    *trace.Trace
		profErr error
		wg      sync.WaitGroup
	)
	if opts.ProfileSeed != opts.Seed {
		profOpts := opts
		profOpts.Video.SceneCuts = nil // a plain profiling sequence
		wg.Add(1)
		go func() {
			defer wg.Done()
			if prof, _, profErr = encodeTrace(app, profOpts, opts.ProfileSeed); profErr == nil {
				profErr = prof.BuildProfile(app)
			}
		}()
	}
	tr, frames, err := encodeTrace(app, opts, opts.Seed)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	switch {
	case opts.ProfileSeed == opts.Seed:
		if err := tr.BuildProfile(app); err != nil {
			return nil, err
		}
	case profErr != nil:
		return nil, profErr
	default:
		tr.Profile = prof.Profile
	}
	if err := tr.Validate(app); err != nil {
		return nil, err
	}
	return &Result{App: app, Trace: tr, Frames: frames}, nil
}

// encodeTrace encodes one synthetic sequence and returns its iterations.
func encodeTrace(app *ise.Application, opts Options, seed uint64) (*trace.Trace, []*h264.FrameStats, error) {
	gen, err := video.NewGenerator(opts.Width, opts.Height, seed, opts.Video)
	if err != nil {
		return nil, nil, err
	}
	enc, err := h264.NewEncoder(opts.Width, opts.Height, opts.Encoder)
	if err != nil {
		return nil, nil, err
	}
	tr := &trace.Trace{App: app.Name}
	var frames []*h264.FrameStats
	for f := 0; f < opts.Frames; f++ {
		st, err := enc.EncodeFrame(gen.Next())
		if err != nil {
			return nil, nil, fmt.Errorf("workload: frame %d: %w", f, err)
		}
		frames = append(frames, st)
		phase := "P"
		if st.Inter == 0 && st.Skip == 0 {
			phase = "I"
		}
		for _, fb := range h264.FunctionalBlocks {
			it := trace.Iteration{
				Block:    fb.ID,
				Seq:      f,
				Phase:    phase,
				Prologue: iselib.BlockPrologue(fb.ID),
			}
			for _, kname := range fb.Kernels {
				e := st.Counts[kname]
				if e <= 0 {
					continue
				}
				it.Loads = append(it.Loads, trace.KernelLoad{
					Kernel: ise.KernelID(kname),
					E:      e,
					GapSW:  iselib.SoftwareGap(kname),
				})
			}
			if len(it.Loads) > 0 {
				tr.Iterations = append(tr.Iterations, it)
			}
		}
	}
	return tr, frames, nil
}

// MustBuild panics on error (static inputs cannot fail at runtime).
func MustBuild(opts Options) *Result {
	r, err := Build(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// Small builds a reduced QCIF workload for fast unit tests.
func Small() *Result {
	return MustBuild(Options{
		Width:  176,
		Height: 144,
		Frames: 6,
		Video:  video.Options{SceneCuts: []int{3}},
	})
}

// Synthetic builds a workload over a generated application — nBlocks
// functional blocks of nKernels kernels with nISEs candidate ISEs each —
// and a pseudo-random trace of block iterations whose execution counts
// vary around the generated trigger values. It stress-tests the selector
// and simulator beyond the H.264 application (e.g. the paper's "up to 60
// ISEs per kernel" regime) and demonstrates that the runtime system is not
// tied to one workload.
func Synthetic(nBlocks, nKernels, nISEs, iterations int, seed uint64) (*Result, error) {
	if nBlocks <= 0 || nKernels <= 0 || nISEs <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("workload: synthetic sizes must be positive")
	}
	rng := video.NewRNG(seed ^ 0x5EED)

	var blocks []*ise.FunctionalBlock
	baseTriggers := make(map[string][]ise.Trigger, nBlocks)
	for b := 0; b < nBlocks; b++ {
		id := fmt.Sprintf("sb%d", b)
		blk, triggers := iselib.GenerateBlock(id, nKernels, nISEs, seed+uint64(b)*104729)
		blocks = append(blocks, blk)
		baseTriggers[id] = triggers
	}
	app, err := ise.NewApplication("synthetic", blocks...)
	if err != nil {
		return nil, err
	}

	tr := &trace.Trace{App: app.Name}
	for it := 0; it < iterations; it++ {
		for _, blk := range blocks {
			iter := trace.Iteration{
				Block:    blk.ID,
				Seq:      it,
				Prologue: arch.Cycles(500 + rng.Intn(2000)),
			}
			for _, tg := range baseTriggers[blk.ID] {
				// Vary each kernel's count by up to +/-50% per
				// iteration.
				e := tg.E/2 + int64(rng.Intn(int(tg.E)))
				if e <= 0 {
					e = 1
				}
				iter.Loads = append(iter.Loads, trace.KernelLoad{
					Kernel: tg.Kernel,
					E:      e,
					GapSW:  arch.Cycles(8 + rng.Intn(24)),
				})
			}
			tr.Iterations = append(tr.Iterations, iter)
		}
	}
	if err := tr.BuildProfile(app); err != nil {
		return nil, err
	}
	if err := tr.Validate(app); err != nil {
		return nil, err
	}
	return &Result{App: app, Trace: tr}, nil
}
