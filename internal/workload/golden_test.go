package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mrts/internal/h264"
	"mrts/internal/trace"
	"mrts/internal/video"
)

// buildDigest hashes everything Build hands the experiments: the trace's
// iterations and static profile, and every frame's kernel counts, bit
// count, PSNR and serialised stream.
func buildDigest(t *testing.T, w *Result) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Iterations []trace.Iteration
		Profile    any
		Frames     []*h264.FrameStats
	}{w.Trace.Iterations, w.Trace.Profile, w.Frames})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestBuildGolden pins Build's output, so a change to the encoder or the
// trace assembly that is meant to be a pure speed-up is shown to leave
// every trace, profile and bitstream byte-identical.
func TestBuildGolden(t *testing.T) {
	figs := func(seed uint64) func() *Result {
		return func() *Result {
			return MustBuild(Options{
				Frames: 16,
				Seed:   seed,
				Video:  video.Options{SceneCuts: []int{5, 10}},
			})
		}
	}
	cases := []struct {
		name  string
		build func() *Result
		want  string
	}{
		{"figs-seed5", figs(5), "5df4458b9ef9bbea556331641a8b01012046a0ed3c1093c762f98c624dca5bf0"},
		{"figs-seed6", figs(6), "3672034b9fdfded99f48a4538b024d28d636eb81b4a2309eb709a7e76ee3e2f2"},
		{"figs-seed7", figs(7), "2229d1d66210cb2fb5243dc5ea336f29015eccdbdb9195243ba338f64eef086f"},
		{"figs-seed8", figs(8), "241b132ac25f7aaf948ecf10c1bd020abe820870297adaacd8d9703e0d85b6ae"},
		// Seed 0 with cuts at frames 5 and 11: a 16-frame input beside
		// the CLIs' cuts at 5 and 10.
		{"default", func() *Result {
			return MustBuild(Options{Frames: 16, Video: video.Options{SceneCuts: []int{5, 11}}})
		}, "00c263c8132dc17daa6e9f4b45be316e5f372f77cd187ed38679c2ab0b1b76b1"},
		{"small", Small, "1731c65e6810d752719a798415ad76f76031110ea9274ac0cf64d4f22b81ebc5"},
		{"48x32-qp30-sr3", func() *Result {
			return MustBuild(Options{
				Width:   48,
				Height:  32,
				Frames:  6,
				Video:   video.Options{SceneCuts: []int{3}},
				Encoder: h264.Config{QP: 30, SearchRange: 3},
			})
		}, "9b112afa79d54d146bf1459951722ab3920aa0400d1c2e6603e3658e3686bb37"},
		{"cif-qp30", func() *Result {
			return MustBuild(Options{
				Width:   352,
				Height:  288,
				Frames:  4,
				Video:   video.Options{SceneCuts: []int{2}},
				Encoder: h264.Config{QP: 30},
			})
		}, "10ba9acba34f5e2e5bc3616b511d7c11cd3f161042852918ba2a1ae18d7f9a9e"},
		{"sr0", func() *Result {
			return MustBuild(Options{
				Frames:  6,
				Video:   video.Options{SceneCuts: []int{3}},
				Encoder: h264.Config{SearchRange: -1},
			})
		}, "ae2d678e615aacf517074fe325e36bf56132150d6d4f3f077b77d7bea9b5dbe7"},
		{"intra4", func() *Result {
			return MustBuild(Options{
				Frames:  9,
				Video:   video.Options{SceneCuts: []int{6}},
				Encoder: h264.Config{ForceIntraEvery: 4},
			})
		}, "eff893e57a020896399877aa67328790a527bc0f3f65f22197e5e9e60ad0da02"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := buildDigest(t, c.build()); got != c.want {
				t.Errorf("Build digest = %s, want %s", got, c.want)
			}
		})
	}
}
