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
// the bounds capped at 2/2. So each golden is also
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

// TestCaseStudyGoldens pins the bytes of the motivational case study and
// the calibration table, which render outside FigNames: Fig. 1 at
// mrts-case's default range, Fig. 2 on mrts-case's default workload (16
// frames, seed 1, scene cuts at frames 5 and 10) and the calibration table
// mrts-isa prints. So the first two goldens are also
//
//	mrts-case -fig 1 | sha256sum
//	mrts-case -fig 2 | sha256sum
func TestCaseStudyGoldens(t *testing.T) {
	want := readGoldens(t, "testdata/case.sha256")
	w, err := workload.Build(workload.Options{
		Frames: 16, Seed: 1,
		Video: video.Options{SceneCuts: []int{16 / 3, 2 * 16 / 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	render := map[string]func(*bytes.Buffer) error{
		"1": func(b *bytes.Buffer) error { Fig1(6000, 200).Render(b); return nil },
		"2": func(b *bytes.Buffer) error { Fig2(w).Render(b); return nil },
		"calibration": func(b *bytes.Buffer) error {
			_, err := Calibration(b)
			return err
		},
	}
	for name, fn := range render {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: sha256 %s, golden %q\n%s", name, got, want[name], buf.Bytes())
		}
	}
	if len(want) != len(render) {
		t.Errorf("%d goldens for %d renderings", len(want), len(render))
	}
}
