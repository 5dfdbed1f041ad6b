package exp

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"mrts/internal/selector"
	"mrts/internal/video"
	"mrts/internal/workload"
)

// goldenInput is the small input every figure's bytes are pinned at: the
// two-frame workload mrts-sweep builds for -frames 2 at seed 1, bounds 2/1
// and two tenants. Phase sweeps its own phased workloads at that seed, on
// the bounds capped at 2/2; Fig. 1 and calibration take no input. So each
// golden is also
//
//	mrts-sweep -fig NAME -frames 2 -maxprc 2 -maxcg 1 -tenants 2 | sha256sum
var goldenInput = FigInput{
	Base:   workload.Options{Frames: 2, Seed: 1, Video: video.Options{SceneCuts: []int{0, 1}}},
	MaxPRC: 2, MaxCG: 1, Tenants: 2,
}

// TestFigGoldens pins the rendered bytes of every figure in FigNames to
// the sha256 recorded in testdata/figs.sha256. A figure that renders
// different bytes is a change to the paper's artifacts: record the new
// digest by hand and say why in the change log.
func TestFigGoldens(t *testing.T) {
	want := readGoldens(t, "testdata/figs.sha256")
	w, err := workload.Build(goldenInput.Base)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInput
	in.Eval = DirectPointEvaluator(w)
	in.Workload = func(context.Context) (*workload.Result, *selector.Memo, error) { return w, nil, nil }
	in.Workloads = DirectWorkloads()
	for _, name := range FigNames {
		var buf bytes.Buffer
		if err := RenderFig(context.Background(), &buf, name, in); err != nil {
			t.Fatalf("fig %s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("fig %s: sha256 %s, golden %q\n%s", name, got, want[name], buf.Bytes())
		}
	}
	if len(want) != len(FigNames) {
		t.Errorf("%d goldens for %d figures", len(want), len(FigNames))
	}
}

// readGoldens parses "<sha256>  <figure>" lines.
func readGoldens(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCaseStudyGoldens pins Fig. 2 at mrts-sweep's default input as well:
// 16 frames, seed 1, scene cuts at frames 5 and 10, the workload the paper's
// 16-frame excerpt is drawn from. So its golden is also
//
//	mrts-sweep -fig 2 | sha256sum
func TestCaseStudyGoldens(t *testing.T) {
	want := readGoldens(t, "testdata/case.sha256")
	w, err := workload.Build(workload.Options{
		Frames: 16, Seed: 1,
		Video: video.Options{SceneCuts: []int{16 / 3, 2 * 16 / 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := FigInput{Workload: func(context.Context) (*workload.Result, *selector.Memo, error) { return w, nil, nil }}
	var buf bytes.Buffer
	if err := RenderFig(context.Background(), &buf, "2", in); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want["2"] {
		t.Errorf("fig 2: sha256 %s, golden %q\n%s", got, want["2"], buf.Bytes())
	}
	if len(want) != 1 {
		t.Errorf("%d goldens for 1 rendering", len(want))
	}
}
